package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hawq/internal/client"
	"hawq/internal/engine"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// The point workload: two connections through the wire protocol, each a
// closed loop of prepared single-row lookups by primary key (customer
// by c_custkey, orders by o_orderkey), keys drawn uniformly from the
// generated keys. Each statement scans one segment's few hundred rows,
// so the fixed per-statement path dominates: wire, plan-cache
// clone+bind, plan codec, dispatch, gather and interconnect setup.

const (
	pointConns = 2
	// pointWarmup exceeds the interconnect's one-minute tombstone
	// lifetime for finished receivers, so the measured window sees the
	// tombstone population a long-running server carries.
	pointWarmup = 61 * time.Second
	// pointPass is the lookups per "pass" behind suite_s.
	pointPass = 1000.0
)

var pointStatements = []struct{ kind, sql string }{
	{"customer", "SELECT * FROM customer WHERE c_custkey = $1"},
	{"orders", "SELECT * FROM orders WHERE o_orderkey = $1"},
}

// pointOp is one completed lookup.
type pointOp struct {
	phase phase
	kind  int
	start float64 // seconds since the run start
	lat   time.Duration
	rows  int
}

func runPoint(cfg *config, r *rig) (*outcome, error) {
	srv, err := client.NewServer(r.e, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	stmts := make([]*sqlparser.SelectStmt, len(pointStatements))
	byKind := map[string]*sqlparser.SelectStmt{}
	for i, st := range pointStatements {
		s, err := sqlparser.ParseOne(st.sql)
		if err != nil {
			return nil, err
		}
		stmts[i] = s.(*sqlparser.SelectStmt)
		byKind[st.kind] = stmts[i]
	}
	tr := newTracer()
	lay := &layered{e: r.e, t: tr}
	sched := newSchedule(cfg, cfg.warmup)
	w := &window{cfg: cfg}

	out := &outcome{metrics: map[string]float64{}}
	var mu sync.Mutex // guards out's failure fields
	failf := func(format string, args ...any) {
		mu.Lock()
		out.fail(format, args...)
		mu.Unlock()
	}
	results := make([][]pointOp, pointConns)
	var wg sync.WaitGroup
	for c := 0; c < pointConns; c++ {
		conn, err := client.Connect(srv.Addr())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		for _, st := range pointStatements {
			if err := conn.Prepare(st.kind, st.sql); err != nil {
				return nil, err
			}
		}
		wg.Add(1)
		go func(c int, conn *client.Conn) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
			for {
				ph := sched.now()
				if ph == phaseDone {
					return
				}
				kind := rng.Intn(len(pointStatements))
				key, want := r.data.pointKey(rng, kind)
				arg := types.NewInt64(key)
				start := now()
				var rows []types.Row
				var err error
				if ph == phaseTraced {
					rows, err = pointTraced(lay, conn, pointStatements[kind].kind, stmts[kind], arg)
				} else {
					var res *client.Result
					res, err = conn.ExecPrepared(pointStatements[kind].kind, arg)
					if res != nil {
						rows = res.Rows
					}
				}
				lat := since(start)
				switch {
				case err != nil:
					failf("%s key %d: %v", pointStatements[kind].kind, key, err)
				case len(rows) != 1 || !rowsMatch(rows, []types.Row{want}):
					failf("%s key %d: got %v, want %v", pointStatements[kind].kind, key, rows, want)
				}
				results[c] = append(results[c], pointOp{
					phase: ph, kind: kind, start: start.Sub(sched.start).Seconds(), lat: lat, rows: len(rows),
				})
			}
		}(c, conn)
	}
	// The main goroutine opens and closes the untraced window's
	// process-wide measurements at the schedule's boundaries.
	sleepUntil(sched.measureStart())
	werr := w.open()
	sleepUntil(sched.untracedEnd())
	if err := w.close(); werr == nil {
		werr = err
	}
	wg.Wait()
	if werr != nil {
		return nil, werr
	}

	var all []pointOp
	for _, ops := range results {
		all = append(all, ops...)
	}
	out.attempted = int64(len(all))
	m := out.metrics
	lat := newLatencies()
	var warmStarts []float64
	var timed []timedOp
	rowsOut := 0
	for _, o := range all {
		switch o.phase {
		case phaseMeasured:
			kind := pointStatements[o.kind].kind
			lat.add(kind, o.lat)
			timed = append(timed, timedOp{start: o.start - sched.warmup.Seconds(), kind: kind})
			rowsOut += o.rows
		case phaseWarmup:
			warmStarts = append(warmStarts, o.start)
		}
	}
	win := sched.untracedWindow().Seconds()
	n := float64(len(timed))
	qps := n / win
	if cfg.trace {
		d := w.delta()
		d.engineCounters(m, n, n, 0)
		d.runtimeMetrics(m, n)
		w.profileMetrics(m)
		tr.layerMetrics(m)
		tr.coverage(m, lat)
		m["storage.ao_decode_ns_per_row"], err = aoDecodeNsPerRow(r.e, "customer", "orders")
		if err != nil {
			return nil, err
		}
		m["storage.co_decode_ns_per_row"] = 0
		m["storage.write_ns_per_row"] = 0
		m["load.drift_ratio"] = driftRatio(timed, win, lat.kindMedians())
		m["load.warmup_ratio"] = warmupRatio(warmStarts, sched.warmup.Seconds(), qps)
		pv, err := planVariants(r.e, byKind, variantDraws)
		if err != nil {
			return nil, err
		}
		m["planner.offmodal_plan_ratio"] = pv.offModal()
		if m["plan.encoded_bytes"], m["plan.decodes_per_op"], err = pointCodec(r.e, stmts, r.data, cfg.seed); err != nil {
			return nil, err
		}
		return out, nil
	}
	lats := lat.all()
	m["qps"] = qps
	m["mean_ms"] = mean(lats)
	// p99 is the highest percentile with well over ten samples beyond
	// it in a window.
	m["tail_ms"] = quantile(lats, 0.99)
	// Every lookup's row is checked against the generator.
	m["check_ms"] = quantile(lats, 0.5)
	m["suite_s"] = pointPass / qps
	m["geomean_ms"] = geomean(values(lat.kindMeans()))
	m["rows_per_s"] = float64(rowsOut) / win
	m["stored_bytes_per_row"], err = storedBytesPerRow(r.e, "customer", "orders")
	if err != nil {
		return nil, err
	}
	r.peakHeapMB = w.peakMB
	slices := make([]float64, int(win))
	for _, o := range timed {
		if i := int(o.start); i >= 0 && i < len(slices) {
			slices[i]++
		}
	}
	out.report = append(out.report, fmt.Sprintf("point per-second lookups: %v median %v", slices, median(slices)))
	out.report = append(out.report,
		fmt.Sprintf("point: %d lookups in %.1fs after %.0fs warmup; qps=%.1f p50_ms=%.3f p99_ms=%.3f drift=%+.3f",
			len(timed), win, sched.warmup.Seconds(), qps, quantile(lats, 0.5), quantile(lats, 0.99), driftRatio(timed, win, lat.kindMedians())),
		fmt.Sprintf("error_ratio=%g", ratio(float64(out.failed), float64(out.attempted))))
	return out, nil
}

// pointKey draws a uniform key of the given statement kind and returns
// it with the generated row the lookup must return.
func (d *dataset) pointKey(rng *rand.Rand, kind int) (int64, types.Row) {
	if kind == 0 {
		k := d.custKeys[rng.Intn(len(d.custKeys))]
		return k, d.customers[k]
	}
	k := d.orderKeys[rng.Intn(len(d.orderKeys))]
	return k, d.orders[k]
}

// pointTraced runs one lookup through the layers: a wire round trip
// (an empty statement: the protocol's floor), then the engine's
// prepared-statement path in process.
func pointTraced(l *layered, conn *client.Conn, kind string, stmt *sqlparser.SelectStmt, arg types.Datum) ([]types.Row, error) {
	o := l.t.begin(kind)
	defer o.end()
	if err := o.span("client.wire", true, func() error {
		_, err := conn.Query("")
		return err
	}); err != nil {
		return nil, err
	}
	return l.execute(o, stmt, []types.Datum{arg})
}

// pointCodec encodes each lookup's cached generic plan bound to a
// seed-drawn key and returns the mean encoded size and QE count over the
// statements. Which connection traces a statement first is a race, so
// these counts come from here, where they repeat exactly for a seed.
func pointCodec(e *engine.Engine, stmts []*sqlparser.SelectStmt, d *dataset, seed int64) (bytes, decodes float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	for kind, stmt := range stmts {
		key, _ := d.pointKey(rng, kind)
		v, ok := e.PlanCache().Get(cacheKey(e, stmt), e.Cluster().TxMgr.CatVer())
		cached, isPlan := v.(*plan.Plan)
		if !ok || !isPlan {
			return 0, 0, fmt.Errorf("%s: no cached plan", pointStatements[kind].kind)
		}
		pl, err := cached.Clone()
		if err != nil {
			return 0, 0, err
		}
		if err := pl.BindParams([]types.Datum{types.NewInt64(key)}); err != nil {
			return 0, 0, err
		}
		enc, err := plan.Encode(pl)
		if err != nil {
			return 0, 0, err
		}
		bytes += float64(len(enc))
		decodes += float64(qeCount(pl))
	}
	n := float64(len(stmts))
	return bytes / n, decodes / n, nil
}

// warmupRatio compares the measured op rate with the rate over the
// first five seconds of warmup (the first fifth of a shorter one): below
// one means the engine slowed down as it kept serving.
func warmupRatio(warmStarts []float64, warmup, measuredRate float64) float64 {
	early := 5.0
	if warmup < 5*early {
		early = warmup / 5
	}
	var n float64
	for _, s := range warmStarts {
		if s < early {
			n++
		}
	}
	return ratio(measuredRate, ratio(n, early))
}
