package hdfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func newTestFS(t *testing.T, nodes, blockSize int) *FileSystem {
	t.Helper()
	fs, err := New(Config{DataNodes: nodes, VolumesPerNode: 2, BlockSize: blockSize, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteReadRoundTripAcrossBlocks(t *testing.T) {
	fs := newTestFS(t, 4, 64)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := fs.WriteFile("/t/a", data, CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/t/a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Length != 1000 || st.Blocks != (1000+63)/64 {
		t.Errorf("stat = %+v", st)
	}
	got, err := fs.ReadFile("/t/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadAtAndSeek(t *testing.T) {
	fs := newTestFS(t, 3, 16)
	data := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	if err := fs.WriteFile("/f", data, CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 10)
	if _, err := r.ReadAt(buf, 14); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data[14:24]) {
		t.Errorf("ReadAt = %q", buf)
	}
	if _, err := r.Seek(-4, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	n, err := r.Read(buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "6789" {
		t.Errorf("tail read = %q", buf[:n])
	}
	if _, err := r.ReadAt(buf, 1000); err != io.EOF {
		t.Errorf("read past EOF err = %v", err)
	}
}

func TestAppendAndLeases(t *testing.T) {
	fs := newTestFS(t, 3, 32)
	w, err := fs.Create("/x", CreateOptions{Writer: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("hello "))
	// Second writer must be rejected while the lease is held.
	if _, err := fs.Append("/x", CreateOptions{Writer: "w2"}); !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("append during lease err = %v", err)
	}
	if err := fs.Truncate("/x", 0); !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("truncate during lease err = %v", err)
	}
	w.Close()
	w2, err := fs.Append("/x", CreateOptions{Writer: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	w2.Write([]byte("world"))
	w2.Close()
	got, _ := fs.ReadFile("/x")
	if string(got) != "hello world" {
		t.Errorf("content = %q", got)
	}
}

func TestCreateErrors(t *testing.T) {
	fs := newTestFS(t, 3, 32)
	if _, err := fs.Create("relative", CreateOptions{}); err == nil {
		t.Error("relative path accepted")
	}
	fs.WriteFile("/dup", nil, CreateOptions{})
	if _, err := fs.Create("/dup", CreateOptions{}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create err = %v", err)
	}
	if _, err := fs.Open("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("open missing err = %v", err)
	}
	fs.Mkdir("/d")
	if _, err := fs.Create("/d", CreateOptions{}); !errors.Is(err, ErrIsDirectory) {
		t.Errorf("create over dir err = %v", err)
	}
}

func TestTruncateSemantics(t *testing.T) {
	fs := newTestFS(t, 3, 10)
	data := []byte("0123456789abcdefghijKLMNO") // 25 bytes -> blocks of 10,10,5
	fs.WriteFile("/t", data, CreateOptions{})

	// Longer than file: error, per the paper's semantics.
	if err := fs.Truncate("/t", 26); !errors.Is(err, ErrBadLength) {
		t.Fatalf("truncate beyond EOF err = %v", err)
	}
	// Open a reader before truncating; unaffected data stays readable.
	r, _ := fs.Open("/t")

	// Mid-block truncate (to 13: keeps block0 and 3 bytes of block1).
	if err := fs.Truncate("/t", 13); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/t")
	if string(got) != "0123456789abc" {
		t.Fatalf("after mid-block truncate: %q", got)
	}
	st, _ := fs.Stat("/t")
	if st.Blocks != 2 {
		t.Errorf("blocks = %d, want 2", st.Blocks)
	}
	// Block-boundary truncate.
	if err := fs.Truncate("/t", 10); err != nil {
		t.Fatal(err)
	}
	st, _ = fs.Stat("/t")
	if st.Length != 10 || st.Blocks != 1 {
		t.Errorf("after boundary truncate: %+v", st)
	}
	// Concurrent reader still reads the data below the truncation point.
	buf := make([]byte, 10)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("reader after truncate: %v", err)
	}
	if string(buf) != "0123456789" {
		t.Errorf("reader content = %q", buf)
	}
	// Truncate to zero, then append again.
	if err := fs.Truncate("/t", 0); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Append("/t", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("new"))
	w.Close()
	got, _ = fs.ReadFile("/t")
	if string(got) != "new" {
		t.Errorf("after truncate+append: %q", got)
	}
}

func TestDeleteRenameList(t *testing.T) {
	fs := newTestFS(t, 3, 32)
	fs.WriteFile("/a/b/f1", []byte("1"), CreateOptions{})
	fs.WriteFile("/a/f2", []byte("22"), CreateOptions{})
	ls, err := fs.List("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 2 || !ls[0].IsDir || ls[0].Path != "/a/b" || ls[1].Path != "/a/f2" {
		t.Errorf("list = %+v", ls)
	}
	if err := fs.Delete("/a", false); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("non-recursive delete err = %v", err)
	}
	if err := fs.Rename("/a/f2", "/c/f2"); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/c/f2"); string(got) != "22" {
		t.Errorf("renamed content = %q", got)
	}
	if err := fs.Delete("/a", true); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a/b/f1") {
		t.Error("recursive delete left file")
	}
	if fs.TotalBytes() != 2 {
		t.Errorf("total bytes = %d", fs.TotalBytes())
	}
}

func TestReplicaFailoverOnRead(t *testing.T) {
	fs := newTestFS(t, 3, 1024)
	data := bytes.Repeat([]byte("xyz"), 100)
	fs.WriteFile("/r", data, CreateOptions{})
	// Kill two of three nodes: every block keeps one replica.
	fs.DataNode(0).Kill()
	fs.DataNode(1).Kill()
	got, err := fs.ReadFile("/r")
	if err != nil {
		t.Fatalf("read with 2/3 nodes down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after failover")
	}
	// Kill the last one: reads must fail.
	fs.DataNode(2).Kill()
	if _, err := fs.ReadFile("/r"); err == nil {
		t.Fatal("read succeeded with all nodes down")
	}
	fs.DataNode(0).Restart()
	if _, err := fs.ReadFile("/r"); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
}

func TestVolumeFailureAndReplicationCheck(t *testing.T) {
	fs, err := New(Config{DataNodes: 4, VolumesPerNode: 1, BlockSize: 64, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("q"), 300)
	fs.WriteFile("/v", data, CreateOptions{})
	// Fail node 0's only volume: some blocks drop to one replica.
	lost := fs.DataNode(0).FailVolume(0)
	if len(lost) == 0 {
		t.Skip("placement put nothing on dn0") // deterministic RR makes this unlikely
	}
	created := fs.ReplicationCheck()
	if created == 0 {
		t.Fatal("replication check recreated nothing")
	}
	// All data must still be readable even if another holder dies.
	got, err := fs.ReadFile("/v")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after re-replication: %v", err)
	}
}

func TestBlockLocationsAndLocality(t *testing.T) {
	fs := newTestFS(t, 4, 50)
	data := bytes.Repeat([]byte("L"), 120)
	if err := fs.WriteFile("/loc", data, CreateOptions{PreferredHost: "dn2"}); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("/loc")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("blocks = %d, want 3", len(locs))
	}
	var off int64
	for _, l := range locs {
		if l.Offset != off {
			t.Errorf("offset = %d, want %d", l.Offset, off)
		}
		off += l.Length
		if len(l.Hosts) != 3 {
			t.Errorf("replicas = %d, want 3", len(l.Hosts))
		}
		if l.Hosts[0] != "dn2" {
			t.Errorf("first replica on %s, want preferred dn2", l.Hosts[0])
		}
	}
}

func TestWriterSurvivesReplicaDeath(t *testing.T) {
	fs := newTestFS(t, 3, 8)
	w, err := fs.Create("/w", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	fs.DataNode(1).Kill()
	if _, err := w.Write([]byte("abcdefgh")); err != nil {
		t.Fatalf("write after replica death: %v", err)
	}
	w.Close()
	got, err := fs.ReadFile("/w")
	if err != nil || string(got) != "12345678abcdefgh" {
		t.Fatalf("content = %q, err = %v", got, err)
	}
}

// Property-style test: a random sequence of writes, appends and truncates
// matches an in-memory reference byte slice.
func TestRandomOpsMatchReference(t *testing.T) {
	fs := newTestFS(t, 4, 37)
	r := rand.New(rand.NewSource(42))
	var ref []byte
	const path = "/prop"
	fs.WriteFile(path, nil, CreateOptions{})
	for i := 0; i < 300; i++ {
		switch r.Intn(3) {
		case 0, 1: // append
			chunk := make([]byte, r.Intn(100))
			r.Read(chunk)
			w, err := fs.Append(path, CreateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(chunk); err != nil {
				t.Fatal(err)
			}
			w.Close()
			ref = append(ref, chunk...)
		case 2: // truncate
			if len(ref) == 0 {
				continue
			}
			n := r.Intn(len(ref) + 1)
			if err := fs.Truncate(path, int64(n)); err != nil {
				t.Fatal(err)
			}
			ref = ref[:n]
		}
		got, err := fs.ReadFile(path)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("op %d: content diverged (len %d vs %d)", i, len(got), len(ref))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero datanodes accepted")
	}
	fs, err := New(Config{DataNodes: 2, Replication: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fs.cfg.Replication != 2 {
		t.Errorf("replication capped to %d, want 2", fs.cfg.Replication)
	}
}

func TestReadAtCopiesOnceAndSurvivesDeadFirstReplica(t *testing.T) {
	fs := newTestFS(t, 4, 4096)
	data := make([]byte, 3*4096+100)
	rand.New(rand.NewSource(3)).Read(data)
	if err := fs.WriteFile("/c", data, CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/c")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, len(data)-50)
	read := func() {
		if n, err := r.ReadAt(buf, 25); err != nil || n != len(buf) {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
	}
	if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
		t.Errorf("ReadAt allocates %.0f times per call", allocs)
	}
	if !bytes.Equal(buf, data[25:len(data)-25]) {
		t.Fatal("ReadAt bytes differ from the written file")
	}
	// Kill the first block's first replica: reads of that block fall
	// back to the next replica and must return the same bytes.
	r.blocks[0].locs[0].Kill()
	clear(buf)
	read()
	if !bytes.Equal(buf, data[25:len(data)-25]) {
		t.Fatal("ReadAt bytes differ after the first replicas died")
	}
}
