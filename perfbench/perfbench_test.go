package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinyRun measures one workload at a tiny scale: TPC-H SF 0.002, one
// setup, a half-second point warmup and a one-second window.
func tinyRun(t *testing.T, workload string, trace bool, seed int64) map[string]float64 {
	t.Helper()
	cfg := &config{
		workload: workload,
		seed:     seed,
		seconds:  1,
		trace:    trace,
		sf:       0.002,
		setups:   1,
		warmup:   500 * time.Millisecond,
		workDir:  t.TempDir(),
	}
	cfg.profileDir = cfg.workDir
	out, err := measure(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s trace=%v: %d of %d operations failed: %v", workload, trace, out.failed, out.attempted, out.problems)
	}
	return out.metrics
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestDeclaredMetricsMatch checks that BENCHMARK.json and the program
// agree on every workload, metric name and unit.
func TestDeclaredMetricsMatch(t *testing.T) {
	e2e, layer, names := declared(t)
	for _, c := range []struct {
		what          string
		json, program map[string]string
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", c.what, len(c.json), len(c.program))
		}
		for name, unit := range c.program {
			if c.json[name] != unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program unit %q", c.what, name, c.json[name], unit)
			}
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program %d workloads", names, len(workloads))
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", n)
		}
	}
}

// deterministic lists, per workload, the metrics that must repeat
// exactly for one seed. Analytic's plan counts are left out: the
// planner's join order is not deterministic, so which plan a run
// encodes varies (see README.md).
var deterministic = map[string][]string{
	"point":    {"plan.encoded_bytes", "plan.decodes_per_op", "stored_bytes_per_row", "hdfs.write_bytes_per_row"},
	"analytic": {"stored_bytes_per_row", "hdfs.write_bytes_per_row"},
	"ingest":   {"plan.encoded_bytes", "plan.decodes_per_op", "stored_bytes_per_row", "hdfs.write_bytes_per_row"},
}

// exercised lists, per workload, the traced metrics that must be above
// zero: each shows the workload reaches that layer. Ingest's runtime
// filter is left out: at the tests' scale the planner builds the check's
// hash table from the staging table, so no filter reaches its scan.
var exercised = map[string][]string{
	"point":    {"storage.ao_decode_ns_per_row", "session.plancache_hit_ratio"},
	"analytic": {"storage.ao_decode_ns_per_row", "executor.hashjoin_self_ms"},
	"ingest": {"storage.ao_decode_ns_per_row", "storage.co_decode_ns_per_row", "storage.write_ns_per_row",
		"executor.pages_skipped_per_op", "wal.fsyncs_per_commit"},
}

// TestTinyRuns runs every workload twice untraced and twice traced at a
// tiny scale: each run must emit every declared metric as a finite
// number with no failed operation, and the deterministic counts must
// repeat exactly, and the exercised layers must show.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots engines and loads TPC-H")
	}
	for _, w := range []string{"point", "analytic", "ingest"} {
		t.Run(w, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				runs[i] = map[string]float64{}
				for _, trace := range []bool{false, true} {
					names := endToEnd
					if trace {
						names = perLayer
					}
					got := tinyRun(t, w, trace, 7)
					for name := range names {
						v, ok := got[name]
						if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("trace=%v: metric %s missing or not finite (%v)", trace, name, v)
						}
						runs[i][name] = v
					}
				}
			}
			for _, name := range deterministic[w] {
				if runs[0][name] != runs[1][name] {
					t.Errorf("%s: %v then %v for the same seed", name, runs[0][name], runs[1][name])
				}
			}
			for _, name := range append(exercised[w], "setup_s", "qps", "suite_s", "mean_ms", "tail_ms", "rows_per_s", "stored_bytes_per_row") {
				if runs[0][name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, runs[0][name])
				}
			}
		})
	}
}

// TestModuleShares checks the CPU-profile attribution on a profile of
// this process.
func TestModuleShares(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	p, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		x += math.Sqrt(x + 1)
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, mod := range cpuModules {
		sum += shares[mod]
	}
	if sum < 0.999 || sum > 1.001 || shares["other"] < 0.5 {
		t.Errorf("shares sum to %v with other=%v, want 1 and mostly other (x=%v)", sum, shares["other"], x)
	}
}

func TestQuantileAndDrift(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %v", got)
	}
	if got := driftRatio([]timedOp{{0.1, "a"}, {0.2, "a"}, {0.7, "a"}}, 1, map[string]float64{"a": 1}); got != -0.5 {
		t.Errorf("drift = %v, want -0.5", got)
	}
}
