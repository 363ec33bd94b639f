package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hawq/internal/engine"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// The traced window times the benchmark's own calls into each layer's
// public functions. A span is one timed call; spans are summed per name
// and counted per op, and the top-level spans of an op (the calls that
// together make up the statement) are summed per statement kind so they
// can be compared with the untraced latency of the same kind.

// tracer accumulates spans and per-op totals. It is safe for concurrent
// use by the workload's sessions.
type tracer struct {
	mu    sync.Mutex
	sums  map[string]time.Duration
	ops   int64
	top   map[string][]float64 // kind → per-op sum of top-level spans, ms
	wall  map[string][]float64 // kind → per-op traced wall time, ms
	exec  execStats
	codec codecStats
	// rowsReturned counts result rows of traced dispatches.
	rowsReturned int64
}

func newTracer() *tracer {
	return &tracer{
		sums: map[string]time.Duration{},
		top:  map[string][]float64{},
		wall: map[string][]float64{},
		codec: codecStats{
			firstBytes:   map[string]int{},
			firstDecodes: map[string]int{},
		},
	}
}

// op is one traced operation of one statement kind.
type op struct {
	t    *tracer
	kind string
	// variant names the plan the op ran with, when the statement's plan
	// is not always the same (see planDistribution).
	variant string
	start   time.Time
	spans   map[string]time.Duration
	top     time.Duration
}

// variantKey is the key coverage compares traced and untraced latencies
// under: the statement kind, and the plan variant when there is one.
func variantKey(kind, variant string) string {
	if variant == "" {
		return kind
	}
	return kind + "\x00" + variant
}

func (t *tracer) begin(kind string) *op {
	return &op{t: t, kind: kind, start: now(), spans: map[string]time.Duration{}}
}

// span times fn under name; a top-level span counts toward the op's
// coverage of the statement.
func (o *op) span(name string, topLevel bool, fn func() error) error {
	start := now()
	err := fn()
	d := since(start)
	o.spans[name] += d
	if topLevel {
		o.top += d
	}
	return err
}

// add records an externally measured span (e.g. a planner span with
// nested subquery execution subtracted).
func (o *op) add(name string, d time.Duration, topLevel bool) {
	o.spans[name] += d
	if topLevel {
		o.top += d
	}
}

// end folds the op into the tracer.
func (o *op) end() {
	wall := since(o.start)
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	for name, d := range o.spans {
		t.sums[name] += d
	}
	key := variantKey(o.kind, o.variant)
	t.top[key] = append(t.top[key], ms(o.top))
	t.wall[key] = append(t.wall[key], ms(wall))
}

// perOp is a span's mean per traced op in the given unit.
func (t *tracer) perOp(name string, unit time.Duration) float64 {
	return ratio(float64(t.sums[name])/float64(unit), float64(t.ops))
}

// coverage adds trace.coverage_ratio and trace.overhead_ratio against
// the untraced latencies of the same run, keyed by variantKey.
func (t *tracer) coverage(m map[string]float64, untraced *latencies) {
	base := untraced.kindMedians()
	var top, wall, ref float64
	for kind, b := range base {
		if len(t.top[kind]) == 0 {
			continue
		}
		top += median(t.top[kind])
		wall += median(t.wall[kind])
		ref += b
	}
	m["trace.coverage_ratio"] = ratio(top, ref)
	m["trace.overhead_ratio"] = ratio(wall, ref) - 1
}

// layerMetrics adds the span- and stats-derived per-layer metrics.
func (t *tracer) layerMetrics(m map[string]float64) {
	us, msec := time.Microsecond, time.Millisecond
	m["client.wire_us"] = t.perOp("client.wire", us)
	m["sqlparser.parse_us"] = t.perOp("sqlparser.parse", us)
	m["planner.plan_us"] = t.perOp("planner.plan", us)
	m["session.clone_bind_us"] = t.perOp("session.clone_bind", us)
	m["plan.encode_us"] = t.perOp("plan.encode", us)
	m["plan.decode_us"] = t.perOp("plan.decode", us)
	m["cluster.dispatch_us"] = t.perOp("cluster.dispatch", us)
	m["engine.copy_ms"] = t.perOp("engine.copy", msec)
	m["engine.truncate_ms"] = t.perOp("engine.truncate", msec)
	m["tx.commit_ms"] = t.perOp("tx.commit", msec)
	m["plan.encoded_bytes"] = t.codec.meanFirst(t.codec.firstBytes)
	m["plan.decodes_per_op"] = t.codec.meanFirst(t.codec.firstDecodes)
	t.exec.metrics(m, float64(t.ops), float64(t.rowsReturned))
}

// codecStats keeps, per statement kind, the encoded size and decode
// count of the kind's first traced execution. The first execution's
// arguments come from the seed, so these counts repeat exactly.
type codecStats struct {
	firstBytes   map[string]int
	firstDecodes map[string]int
}

func (c codecStats) meanFirst(m map[string]int) float64 {
	var sum float64
	for _, v := range m {
		sum += float64(v)
	}
	return ratio(sum, float64(len(m)))
}

// layered runs SELECT statements the way the engine's session does —
// snapshot, plan cache lookup with clone+bind or planning, dispatch,
// commit — but through each layer's public functions, so every layer's
// time is a span. It holds no locks: the workloads run no DDL
// concurrently with their queries.
type layered struct {
	e *engine.Engine
	t *tracer
}

// query parses and runs SQL text as op o.
func (l *layered) query(o *op, sql string) ([]types.Row, error) {
	var stmt sqlparser.Statement
	if err := o.span("sqlparser.parse", true, func() (err error) {
		stmt, err = sqlparser.ParseOne(sql)
		return err
	}); err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("traced query %s: not a SELECT", o.kind)
	}
	return l.execute(o, sel, nil)
}

// execute runs a parsed SELECT with its arguments (nil for SQL text)
// as one op's spans.
func (l *layered) execute(o *op, sel *sqlparser.SelectStmt, args []types.Datum) ([]types.Row, error) {
	cl := l.e.Cluster()
	txn := cl.TxMgr.Begin(tx.ReadCommitted)
	finished := false
	defer func() {
		if !finished {
			txn.Abort()
		}
	}()
	snap := txn.Snapshot()

	// Plan cache: the engine keys on the canonical statement text and
	// cluster shape, and clones + binds a hit.
	key := cacheKey(l.e, sel)
	var pl *plan.Plan
	if err := o.span("session.clone_bind", true, func() error {
		v, ok := l.e.PlanCache().Get(key, snap.CatVer)
		if !ok {
			return nil
		}
		cached, isPlan := v.(*plan.Plan)
		if !isPlan {
			return nil
		}
		c, err := cached.Clone()
		if err != nil {
			return err
		}
		if len(c.ParamKinds) > 0 {
			if err := c.BindParams(args); err != nil {
				return err
			}
		}
		pl = c
		return nil
	}); err != nil {
		return nil, err
	}
	// Planning is timed on every op, also on a cache hit, so the cost a
	// miss pays is visible; only a miss counts it as part of the
	// statement.
	planned, err := l.plan(o, snap, sel, args, pl == nil)
	if err != nil {
		return nil, err
	}
	if pl == nil {
		pl = planned
		if keep, err := pl.Clone(); err == nil {
			l.e.PlanCache().Put(key, snap.CatVer, keep)
		}
		if len(pl.ParamKinds) > 0 {
			if err := pl.BindParams(args); err != nil {
				return nil, err
			}
		}
	}
	rows, err := l.dispatch(o, pl, "cluster.dispatch", true)
	if err != nil {
		return nil, err
	}
	finished = true
	if err := o.span("tx.commit", true, txn.Commit); err != nil {
		return nil, err
	}
	return rows, nil
}

// plan times PlanSelect; nested subquery dispatches are subtracted so
// the span is the planner's own time. Statements with arguments are
// planned generically, as the plan cache stores them.
func (l *layered) plan(o *op, snap tx.Snapshot, sel *sqlparser.SelectStmt, args []types.Datum, topLevel bool) (*plan.Plan, error) {
	p := newPlanner(l.e, snap)
	p.GenericParams = len(args) > 0
	p.SubqueryEval = func(sub *sqlparser.SelectStmt) (types.Datum, error) {
		return l.subquery(o, snap, sub, topLevel)
	}
	before := o.spans["planner.subquery"]
	start := now()
	pl, err := p.PlanSelect(sel)
	nested := o.spans["planner.subquery"] - before
	o.add("planner.plan", since(start)-nested, topLevel)
	return pl, err
}

// subquery evaluates a scalar subquery for the planner, as the engine
// does: plan it and dispatch it. Its dispatch is part of the statement
// only when the enclosing plan is (a cache miss).
func (l *layered) subquery(o *op, snap tx.Snapshot, sub *sqlparser.SelectStmt, topLevel bool) (types.Datum, error) {
	p := newPlanner(l.e, snap)
	p.SubqueryEval = func(s *sqlparser.SelectStmt) (types.Datum, error) { return l.subquery(o, snap, s, topLevel) }
	pl, err := p.PlanSelect(sub)
	if err != nil {
		return types.Null, err
	}
	rows, err := l.dispatch(o, pl, "planner.subquery", topLevel)
	if err != nil {
		return types.Null, err
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return types.Null, nil
	}
	return rows[0][0], nil
}

// dispatch runs a plan under the named span. For a top-level dispatch
// it also encodes the plan and decodes it once per QE — the work the
// dispatcher and its QEs do, timed separately — and folds the gang's
// operator statistics into the tracer.
func (l *layered) dispatch(o *op, pl *plan.Plan, name string, topLevel bool) ([]types.Row, error) {
	var enc []byte
	qes := qeCount(pl)
	if topLevel {
		if err := o.span("plan.encode", false, func() (err error) {
			enc, err = plan.Encode(pl)
			return err
		}); err != nil {
			return nil, err
		}
		for i := 0; i < qes; i++ {
			if err := o.span("plan.decode", false, func() error {
				_, err := plan.Decode(enc)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	pl.CollectStats = topLevel
	start := now()
	res, err := l.e.Cluster().Dispatch(context.Background(), pl, nil)
	took := since(start)
	o.add(name, took, topLevel)
	if err != nil || !topLevel {
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	if _, seen := l.t.codec.firstBytes[o.kind]; !seen && name == "cluster.dispatch" {
		l.t.codec.firstBytes[o.kind] = len(enc)
		l.t.codec.firstDecodes[o.kind] = qes
	}
	l.t.rowsReturned += int64(len(res.Rows))
	l.t.exec.add(pl, res.Stats, took)
	return res.Rows, nil
}

// qeCount is the number of QE executions a dispatch starts: one per
// gang member of every slice below the top one. Each decodes the plan.
func qeCount(pl *plan.Plan) int {
	n := 0
	for _, s := range pl.Slices[1:] {
		n += len(s.Segments)
	}
	return n
}
