// Command perfbench is the repository benchmark. It boots an in-process
// HAWQ engine (4 segments, TPC-H loaded into append-only row tables,
// catalog WAL on a real directory), drives one workload against it from
// this process, checks every answer against the generated data, and
// prints the workload's metrics.
//
// Usage:
//
//	go run . --workload point|analytic|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports end-to-end metrics only. With --trace 1
// it runs an untraced window (counter deltas, runtime statistics and a
// CPU profile) followed by a traced window in which the benchmark calls
// each layer's public functions itself and times them; it then reports
// the per-layer metrics. The program under test is not instrumented.
//
// The last line of standard output is one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
// The process exits non-zero when any operation failed or returned a
// wrong answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// sf, setups and warmup are benchSF, benchSetups and pointWarmup
	// on every declared run; the tests shrink them.
	//
	// sf is the TPC-H scale factor.
	sf float64
	// setups is how many times the run boots and loads an engine to
	// measure setup_s; the last engine is the one measured.
	setups int
	// warmup is the point workload's unmeasured warmup.
	warmup time.Duration
	// workDir holds the WAL directory and spill files.
	workDir string
	// profileDir keeps a traced run's CPU profile (default: workDir).
	profileDir string
}

func (c *config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// problems holds the first few failure descriptions.
	problems []string
	metrics  map[string]float64
	// report lists extra human-readable lines: the workload's own names
	// for its figures (copy_p50_ms, p99_ms, ...) and the error ratio.
	report []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

const (
	// benchSF is the TPC-H scale factor: lineitem ≈ 60k rows.
	benchSF = 0.01
	// benchSetups is the number of boot-and-load cycles behind setup_s.
	benchSetups = 3
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(cfg *config, r *rig) (*outcome, error){
	"point":    runPoint,
	"analytic": runAnalytic,
	"ingest":   runIngest,
}

func main() {
	cfg := &config{sf: benchSF, setups: benchSetups, warmup: pointWarmup}
	flag.StringVar(&cfg.workload, "workload", "", "workload: point, analytic or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (data, keys and row order)")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.workDir, "workdir", "", "directory for WAL and spill files (default: a new directory under $TMPDIR)")
	flag.StringVar(&cfg.profileDir, "profiledir", "", "directory that keeps the traced run's CPU profile (default: the work directory)")
	flag.Parse()
	cfg.trace = *trace == 1
	os.Exit(run(cfg))
}

func run(cfg *config) int {
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload point|analytic|ingest and --seconds > 0\n")
		return 2
	}
	if cfg.workDir == "" {
		dir, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.workDir = dir
	}
	if cfg.profileDir == "" {
		cfg.profileDir = cfg.workDir
	}
	out, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return emit(cfg, out)
}

// measure sets up an engine, drives the workload and returns its
// outcome with every metric of the run's kind filled in.
func measure(cfg *config) (*outcome, error) {
	r, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	out, err := workloads[cfg.workload](cfg, r)
	if cerr := r.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = r.setupSeconds
	if !cfg.trace {
		out.metrics["peak_heap_mb"] = r.peakHeapMB
	}
	return out, nil
}

// emit prints the human-readable report and the final JSON line, and
// returns the exit code.
func emit(cfg *config, out *outcome) int {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	metrics := map[string]any{}
	correct := out.failed == 0
	var keys []string
	for name := range names {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, name := range keys {
		v, ok := out.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or not finite (%v)\n", name, v)
			correct = false
			continue
		}
		metrics[name] = map[string]any{"value": v, "unit": names[name]}
		fmt.Printf("  %-44s %14.6g %s\n", name, v, names[name])
	}
	for _, line := range out.report {
		fmt.Printf("  %s\n", line)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	res := map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// endToEnd lists the metrics a --trace 0 run prints, with units. Every
// workload defines every one of them (see README.md for the per-workload
// meaning).
var endToEnd = map[string]string{
	"setup_s":              "s",
	"peak_heap_mb":         "MB",
	"qps":                  "1/s",
	"mean_ms":              "ms",
	"tail_ms":              "ms",
	"suite_s":              "s",
	"geomean_ms":           "ms",
	"rows_per_s":           "1/s",
	"check_ms":             "ms",
	"stored_bytes_per_row": "B",
}

// cpuModules are the hawq/internal packages a CPU-profile sample can be
// attributed to; "other" takes samples with no hawq/internal frame.
var cpuModules = []string{
	"catalog", "client", "clock", "cluster", "compress", "engine", "executor",
	"expr", "hdfs", "interconnect", "obs", "plan", "planner", "resource",
	"retry", "session", "sqlparser", "storage", "task", "tpch", "tx", "types",
	"wal", "other",
}

// perLayer lists the metrics a --trace 1 run prints, with units.
var perLayer = func() map[string]string {
	m := map[string]string{
		"client.wire_us":                          "us",
		"sqlparser.parse_us":                      "us",
		"planner.plan_us":                         "us",
		"planner.offmodal_plan_ratio":             "ratio",
		"session.clone_bind_us":                   "us",
		"session.plancache_hit_ratio":             "ratio",
		"plan.encode_us":                          "us",
		"plan.decode_us":                          "us",
		"plan.encoded_bytes":                      "B",
		"plan.decodes_per_op":                     "count",
		"cluster.dispatch_us":                     "us",
		"cluster.dispatch_self_us":                "us",
		"cluster.qes_per_op":                      "count",
		"executor.scan_self_ms":                   "ms",
		"executor.hashjoin_self_ms":               "ms",
		"executor.hashagg_self_ms":                "ms",
		"executor.sort_self_ms":                   "ms",
		"executor.motion_send_self_ms":            "ms",
		"executor.motion_recv_wait_ms":            "ms",
		"executor.rows_examined_per_row_returned": "ratio",
		"executor.pages_skipped_per_op":           "count",
		"executor.rtfilter_rows_removed_per_op":   "count",
		"storage.ao_decode_ns_per_row":            "ns",
		"storage.co_decode_ns_per_row":            "ns",
		"storage.write_ns_per_row":                "ns",
		"hdfs.read_bytes_per_op":                  "B",
		"hdfs.remote_read_ratio":                  "ratio",
		"hdfs.write_bytes_per_row":                "B",
		"resource.spill_bytes_per_op":             "B",
		"engine.copy_ms":                          "ms",
		"engine.truncate_ms":                      "ms",
		"tx.commit_ms":                            "ms",
		"wal.fsyncs_per_commit":                   "count",
		"wal.bytes_per_commit":                    "B",
		"interconnect.packets_per_op":             "count",
		"interconnect.bytes_per_op":               "B",
		"interconnect.retransmit_ratio":           "ratio",
		"runtime.alloc_bytes_per_op":              "B",
		"runtime.gc_cpu_share":                    "ratio",
		"runtime.cpu_ms_per_op":                   "ms",
		"trace.coverage_ratio":                    "ratio",
		"trace.overhead_ratio":                    "ratio",
		"load.drift_ratio":                        "ratio",
		"load.warmup_ratio":                       "ratio",
	}
	for _, mod := range cpuModules {
		m[mod+".cpu_share"] = "ratio"
	}
	return m
}()

// profilePath is where a traced run keeps its CPU profile.
func profilePath(cfg *config) string {
	return filepath.Join(cfg.profileDir, fmt.Sprintf("cpu-%s-seed%d.pprof", cfg.workload, cfg.seed))
}
