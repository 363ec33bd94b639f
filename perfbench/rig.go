package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/engine"
	"hawq/internal/obs"
	"hawq/internal/tpch"
	"hawq/internal/tx"
	"hawq/internal/types"
	"hawq/internal/wal"
)

// segments is the cluster size: the repository's default of four.
const segments = 4

// rig is a booted, loaded engine plus the generated rows it was loaded
// with.
type rig struct {
	e            *engine.Engine
	data         *dataset
	setupSeconds float64
	peakHeapMB   float64
}

func (r *rig) close() error { return r.e.Close() }

// The TPC-H data is the generator's standard database (its default
// seed), the same for every workload seed, as dbgen's output is fixed
// for a scale factor. The workload seed picks what the workload does
// with it: lookup keys, query order, the rows an ingest cycle loads.
// Some other generator seeds flip the planner to a Q5 plan that ships
// over 100x more packets (see README.md); a fixed database keeps that
// plan choice out of the run-to-run spread.

// bootLoaded starts an engine under the benchmark's flush policy — the
// catalog WAL on a real directory, one fsync per commit, no automatic
// checkpoints, no background maintenance sweep — and loads TPC-H into
// append-only row tables.
func bootLoaded(cfg *config, dir string) (*engine.Engine, error) {
	disk, err := wal.NewDirDisk(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	e, err := engine.New(engine.Config{
		Segments:        segments,
		SpillDir:        filepath.Join(dir, "spill"),
		WALDisk:         disk,
		WALGroupWindow:  0,
		CheckpointEvery: 0,
		TaskSweep:       false,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tpch.Load(e, tpch.LoadOptions{
		Scale:       tpch.Scale{SF: cfg.sf},
		Orientation: "row",
	}); err != nil {
		return nil, fmt.Errorf("load: %w (close: %v)", err, e.Close())
	}
	return e, nil
}

// setUp boots and loads cfg.setups engines one after another, reports
// the median boot+load time as setup_s, and keeps the last engine.
func setUp(cfg *config) (*rig, error) {
	var times []float64
	var e *engine.Engine
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("engine%d", i))
		start := now()
		var err error
		e, err = bootLoaded(cfg, dir)
		if err != nil {
			return nil, err
		}
		times = append(times, since(start).Seconds())
		if i < cfg.setups-1 {
			if err := e.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return &rig{e: e, data: generate(cfg), setupSeconds: median(times)}, nil
}

// dataset is the generated TPC-H content the engine holds, regenerated
// in the loader's order so answers can be checked against it.
type dataset struct {
	customers map[int64]types.Row
	custKeys  []int64
	orders    map[int64]types.Row
	orderKeys []int64
	lines     []types.Row
}

func generate(cfg *config) *dataset {
	g := tpch.NewGen(tpch.Scale{SF: cfg.sf})
	// tpch.Load draws every table from one generator in this order.
	g.Region()
	g.Nation()
	g.Supplier()
	g.Part()
	g.PartSupp()
	d := &dataset{customers: map[int64]types.Row{}, orders: map[int64]types.Row{}}
	for _, c := range g.Customer() {
		d.customers[c[0].I] = c
		d.custKeys = append(d.custKeys, c[0].I)
	}
	g.OrderAndLines(func(o types.Row, lines []types.Row) {
		d.orders[o[0].I] = o
		d.orderKeys = append(d.orderKeys, o[0].I)
		d.lines = append(d.lines, lines...)
	})
	return d
}

// heapSampler records the peak live heap while it runs: the bytes the
// last completed GC marked live, which does not swing with when the
// collector happens to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := newTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return h.peak / (1 << 20)
}

// procStats is a snapshot of the process-wide counters a traced run
// differences: the engine's obs registry, allocation and GC CPU from
// runtime/metrics, and process CPU time.
type procStats struct {
	obs     map[string]int64
	alloc   float64
	gcCPU   float64
	totCPU  float64
	procCPU time.Duration
	ownHits int64
}

func readProcStats() procStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	//hawqcheck:ignore errdrop
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procStats{
		obs:     obs.Snapshot(),
		alloc:   float64(s[0].Value.Uint64()),
		gcCPU:   s[1].Value.Float64(),
		totCPU:  s[2].Value.Float64(),
		procCPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ownHits: ownCacheHits.Load(),
	}
}

// delta is the difference of two snapshots.
type delta struct{ before, after procStats }

func (d delta) counter(name string) float64 {
	return float64(d.after.obs[name] - d.before.obs[name])
}

// runtimeMetrics adds the runtime.* per-op metrics for ops operations.
func (d delta) runtimeMetrics(m map[string]float64, ops float64) {
	m["runtime.alloc_bytes_per_op"] = ratio(d.after.alloc-d.before.alloc, ops)
	m["runtime.gc_cpu_share"] = ratio(d.after.gcCPU-d.before.gcCPU, d.after.totCPU-d.before.totCPU)
	m["runtime.cpu_ms_per_op"] = ratio(float64(d.after.procCPU-d.before.procCPU)/1e6, ops)
}

// engineCounters adds the counter-derived per-layer metrics: ops
// statements, commits autocommit transactions, rowsIn rows written.
func (d delta) engineCounters(m map[string]float64, ops, commits, rowsIn float64) {
	m["interconnect.packets_per_op"] = ratio(d.counter("interconnect.udp_packets_sent"), ops)
	m["interconnect.bytes_per_op"] = ratio(d.counter("interconnect.udp_bytes_sent"), ops)
	m["interconnect.retransmit_ratio"] = ratio(d.counter("interconnect.udp_retransmits"), d.counter("interconnect.udp_packets_sent"))
	m["hdfs.read_bytes_per_op"] = ratio(d.counter("hdfs.read_bytes"), ops)
	local, remote := d.counter("hdfs.local_reads"), d.counter("hdfs.remote_reads")
	m["hdfs.remote_read_ratio"] = ratio(remote, local+remote)
	m["hdfs.write_bytes_per_row"] = ratio(d.counter("hdfs.write_bytes"), rowsIn)
	m["wal.fsyncs_per_commit"] = ratio(d.counter("wal.fsyncs"), commits)
	m["wal.bytes_per_commit"] = ratio(d.counter("wal.bytes"), commits)
	hits := d.counter("plan_cache.hits") - float64(d.after.ownHits-d.before.ownHits)
	misses := d.counter("plan_cache.misses")
	m["session.plancache_hit_ratio"] = ratio(hits, hits+misses)
}

// storedBytesPerRow is the committed on-HDFS size of the named tables
// per stored row, read from the catalog's segment-file entries.
func storedBytesPerRow(e *engine.Engine, tables ...string) (float64, error) {
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	snap := t.Snapshot()
	var bytes, rows int64
	for _, name := range tables {
		desc, err := cl.Cat().LookupTable(snap, name)
		if err != nil {
			return 0, err
		}
		for _, sf := range cl.Cat().AllSegFiles(snap, desc.OID) {
			bytes += segFileBytes(sf)
			rows += sf.Tuples
		}
	}
	return ratio(float64(bytes), float64(rows)), nil
}

func segFileBytes(sf catalog.SegFile) int64 {
	if len(sf.ColLens) == 0 {
		return sf.LogicalLen
	}
	var n int64
	for _, l := range sf.ColLens {
		n += l
	}
	return n
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies collects per-statement latencies by statement kind.
type latencies struct {
	byKind map[string][]float64
}

func newLatencies() *latencies { return &latencies{byKind: map[string][]float64{}} }

func (l *latencies) add(kind string, d time.Duration) {
	l.byKind[kind] = append(l.byKind[kind], ms(d))
}

// all returns every recorded latency in ms.
func (l *latencies) all() []float64 {
	var out []float64
	for _, v := range l.byKind {
		out = append(out, v...)
	}
	return out
}

// kindMedians returns each kind's median latency in ms, by kind name.
func (l *latencies) kindMedians() map[string]float64 {
	out := map[string]float64{}
	for k, v := range l.byKind {
		out[k] = median(v)
	}
	return out
}

// kindMeans returns each kind's mean latency in ms, by kind name.
func (l *latencies) kindMeans() map[string]float64 {
	out := map[string]float64{}
	for k, v := range l.byKind {
		out[k] = mean(v)
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func sumValues(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// rowsMatch reports whether two result row sets hold the same values,
// ignoring row order and allowing floating-point rounding differences
// (partial aggregates merge in gang order).
func rowsMatch(got, want []types.Row) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return false
		}
		for j := range g[i] {
			if !datumsMatch(g[i][j], w[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortedRows orders rows by their non-float columns' text, which
// equal result sets share regardless of rounding.
func sortedRows(rows []types.Row) []types.Row {
	key := func(r types.Row) string {
		var b []byte
		for _, d := range r {
			if d.K != types.KindFloat64 {
				b = append(b, d.String()...)
			}
			b = append(b, 0)
		}
		return string(b)
	}
	out := append([]types.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

func datumsMatch(a, b types.Datum) bool {
	if a.K == types.KindFloat64 || b.K == types.KindFloat64 {
		return closeTo(a.Float(), b.Float())
	}
	return types.Equal(a, b) || a.String() == b.String()
}

// closeTo compares with a relative tolerance of 1e-9.
func closeTo(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) || diff < 1e-9
}
