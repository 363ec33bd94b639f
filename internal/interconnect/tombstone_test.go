package interconnect

import (
	"net"
	"testing"
	"time"

	"hawq/internal/clock"
)

// len counts the keys held, expired generations not yet released
// included.
func (t *tombstones[K]) len() int {
	n := 0
	for i := range t.gens {
		n += len(t.gens[i].set)
	}
	return n
}

func TestTombstoneLifetimeBounds(t *testing.T) {
	const life = 10 * time.Second
	base := time.Date(2014, 6, 22, 0, 0, 0, 0, time.UTC)
	ts := newTombstones[int](life, base)
	maxLife := life + life/tombGens
	for i, off := range []time.Duration{0, time.Nanosecond, 1234 * time.Millisecond, life / tombGens, 3*life + 7} {
		at := base.Add(off)
		ts.add(i, at)
		if !ts.has(i, at.Add(life)) {
			t.Errorf("key %d added at +%v gone before its lifetime", i, off)
		}
		if ts.has(i, at.Add(maxLife+time.Nanosecond)) {
			t.Errorf("key %d added at +%v outlived %v", i, off, maxLife)
		}
	}
	ts.expire(base.Add(10 * life))
	if n := ts.len(); n != 0 {
		t.Errorf("%d keys left after every lifetime passed", n)
	}
}

// probeStop plays a straggling sender: it sends one EOS for key from a
// fresh socket and reports whether node answered with STOP.
func probeStop(t *testing.T, node *UDPNode, key motionKey) bool {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := encodePacket(header{Type: ptEOS, Query: key.Query, Motion: key.Motion, Sender: 0, Receiver: key.Receiver, Seq: 2}, nil)
	if _, err := conn.WriteToUDP(pkt, node.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	n, _, err := conn.ReadFromUDP(buf)
	if err != nil {
		return false
	}
	h, _, err := decodePacket(buf[:n])
	return err == nil && h.Type == ptStop && h.Query == key.Query
}

// waitReleased waits for node's timer to release every tombstone
// generation; the timer runs on its own goroutine after each Advance.
func waitReleased(t *testing.T, node *UDPNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		node.mu.Lock()
		left := node.drained.len() + node.ended.len()
		node.mu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d tombstones never released", left)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainedReceiverTombstoneLastsDrainHorizon(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	_, nodes := buildUDP(t, 1, UDPConfig{Clock: sim, DrainTimeout: 2 * time.Second})
	qd := nodes[QDSeg].(*UDPNode)
	const query, motion = 5, 1
	recv, err := qd.OpenRecv(query, motion, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := nodes[0].OpenSend(StreamID{Query: query, Motion: motion, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		if err := s.Send([]byte("row")); err != nil {
			closed <- err
			return
		}
		closed <- s.Close()
	}()
	for {
		_, done, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	// Close one millisecond before a generation boundary, which gives
	// the tombstone its shortest life: exactly the drain horizon plus
	// that millisecond.
	horizon := 2*time.Second + rtoMax
	sim.Advance(horizon/tombGens - time.Millisecond)
	recv.Close()
	key := motionKey{Query: query, Motion: motion, Receiver: QDSeg}
	qd.mu.Lock()
	drained, early := qd.drained.len(), qd.ended.len()
	qd.mu.Unlock()
	if drained != 1 || early != 0 {
		t.Fatalf("drained receiver left %d drained and %d early tombstones, want 1 and 0", drained, early)
	}

	sim.Advance(horizon - time.Millisecond)
	if !probeStop(t, qd, key) {
		t.Fatal("straggling EOS inside the drain horizon was not stopped")
	}
	sim.Advance(2 * time.Millisecond)
	if qd.tombstoned(key) {
		t.Fatal("drained receiver's tombstone outlived the drain horizon")
	}
	waitReleased(t, qd)
}

func TestEarlyClosedReceiverTombstoneLastsAMinute(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	_, nodes := buildUDP(t, 1, UDPConfig{Clock: sim, DrainTimeout: 2 * time.Second})
	qd := nodes[QDSeg].(*UDPNode)
	const query, motion = 6, 1
	recv, err := qd.OpenRecv(query, motion, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	// Closed before the sender's EOS, when senders may still be in
	// Send, and just before a generation boundary, which gives the
	// tombstone its shortest life.
	sim.Advance(tombstoneLife/tombGens - time.Millisecond)
	recv.Close()
	key := motionKey{Query: query, Motion: motion, Receiver: QDSeg}

	sim.Advance(59 * time.Second)
	if !probeStop(t, qd, key) {
		t.Fatal("straggler of an early-closed receiver not stopped at 59s")
	}
	sim.Advance(time.Second + 2*time.Millisecond)
	if qd.tombstoned(key) {
		t.Fatal("early-closed receiver's tombstone outlived its lifetime")
	}
	waitReleased(t, qd)
}

// fillTombstones gives node n tombstones, half drained and half early,
// as a long-running server at high QPS carries.
func fillTombstones(node *UDPNode, n int, now time.Time) {
	node.mu.Lock()
	defer node.mu.Unlock()
	for i := 0; i < n; i++ {
		key := motionKey{Query: uint64(i), Motion: 1, Receiver: QDSeg}
		if i%2 == 0 {
			node.drained.add(key, now)
		} else {
			node.ended.add(key, now)
		}
	}
}

func TestTimerTickDoesNoPerTombstoneWork(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	_, nodes := buildUDP(t, 0, UDPConfig{Clock: sim})
	qd := nodes[QDSeg].(*UDPNode)
	const n = 100_000
	start := sim.Now()
	fillTombstones(qd, n, start)

	// A walk over the tombstones is the least a per-tombstone expiry
	// pays on every tick. Two hundred ticks must cost less than one such
	// walk; the best of a few trials absorbs scheduling noise.
	walked := 0
	walk := func() time.Duration {
		t0 := time.Now()
		qd.mu.Lock()
		for _, set := range []*tombstones[motionKey]{qd.drained, qd.ended} {
			for i := range set.gens {
				for k := range set.gens[i].set {
					walked += int(k.Motion)
				}
			}
		}
		qd.mu.Unlock()
		return time.Since(t0)
	}
	var buf []*udpSend
	now := start
	ticks := func() time.Duration {
		t0 := time.Now()
		for i := 0; i < 200; i++ {
			now = now.Add(time.Microsecond)
			buf = qd.tick(now, buf)
		}
		return time.Since(t0)
	}
	ok := false
	for trial := 0; trial < 5 && !ok; trial++ {
		ok = ticks() < walk()
	}
	if !ok {
		t.Fatalf("200 timer ticks cost more than one walk over %d tombstones", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = qd.tick(now, buf) }); allocs != 0 {
		t.Errorf("timer tick allocates %.0f times", allocs)
	}
	qd.mu.Lock()
	left := qd.drained.len() + qd.ended.len()
	qd.mu.Unlock()
	if left != n {
		t.Fatalf("%d of %d tombstones left before any lifetime passed", left, n)
	}
	qd.tick(start.Add(2*tombstoneLife), nil)
	qd.mu.Lock()
	left = qd.drained.len() + qd.ended.len()
	qd.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d tombstones left after their lifetime", left)
	}
}

// BenchmarkUDPTimerTick times one pass of the UDP timer while the node
// holds 100k tombstones of finished receivers.
func BenchmarkUDPTimerTick(b *testing.B) {
	sim := clock.NewSim(time.Time{})
	_, nodes := buildUDP(b, 0, UDPConfig{Clock: sim})
	qd := nodes[QDSeg].(*UDPNode)
	now := sim.Now()
	fillTombstones(qd, 100_000, now)
	var buf []*udpSend
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		buf = qd.tick(now, buf)
	}
}

// TestCanceledQueryTombstoneExpires checks both node kinds remember a
// canceled query for a minute — streams it opens late are born
// canceled — and forget it after the lifetime.
func TestCanceledQueryTombstoneExpires(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	book := NewAddrBook()
	tcp, err := NewTCPNode(QDSeg, book, TCPConfig{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	udp, err := NewUDPNode(0, book, UDPConfig{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	for _, n := range []Node{tcp, udp} {
		n.CancelQuery(7)
	}
	born := func(n Node, query uint64) bool {
		r, err := n.OpenRecv(query, 1, []SegID{1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := make(chan error, 1)
		go func() {
			_, _, err := r.Recv()
			got <- err
		}()
		select {
		case err := <-got:
			return err != nil
		case <-time.After(5 * time.Second):
			return false // Recv waits for a sender: not born canceled
		}
	}
	sim.Advance(59 * time.Second)
	for _, n := range []Node{tcp, udp} {
		if !born(n, 7) {
			t.Errorf("%T: stream opened 59s after the cancel was not born canceled", n)
		}
	}
	sim.Advance(tombstoneLife/tombGens + time.Second)
	tcp.CancelQuery(8) // the TCP node releases expired generations here
	tcp.mu.Lock()
	udp.mu.Lock()
	stale := tcp.canceled.has(7, sim.Now()) || udp.canceled.has(7, sim.Now())
	left := tcp.canceled.len()
	udp.mu.Unlock()
	tcp.mu.Unlock()
	if stale {
		t.Error("canceled-query tombstone outlived its lifetime")
	}
	if left != 1 {
		t.Errorf("TCP node holds %d canceled queries, want only the fresh one", left)
	}
}
