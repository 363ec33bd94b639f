package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"hawq/internal/engine"
	"hawq/internal/plan"
	"hawq/internal/planner"
	"hawq/internal/session"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// variantDraws is how many times each statement is planned to estimate
// how often the planner picks each of its plans.
const variantDraws = 200

// cacheKey is the key the engine's plan cache files a statement under:
// its canonical text, the cluster size and the planner flags.
func cacheKey(e *engine.Engine, sel *sqlparser.SelectStmt) string {
	f := e.Flags()
	return session.Fingerprint(sel.String(), e.Cluster().NumSegments(),
		f.DisableDirectDispatch, f.DisablePartitionElim, f.DisableColocation, f.DisableRuntimeFilters)
}

// ownCacheHits counts the plan cache hits the benchmark's own lookups
// caused, which the plan-cache hit ratio leaves out.
var ownCacheHits atomic.Int64

// newPlanner returns a planner over the engine's catalog at snap, as
// the engine's sessions build one (default flags).
func newPlanner(e *engine.Engine, snap tx.Snapshot) *planner.Planner {
	cl := e.Cluster()
	return &planner.Planner{Cat: cl.Cat(), Snap: snap, NumSegments: cl.NumSegments()}
}

// cachedVariant returns the EXPLAIN text of the plan the engine cached
// under key ("" when there is none): the plan the statement just ran.
func cachedVariant(e *engine.Engine, key string) string {
	v, ok := e.PlanCache().Get(key, e.Cluster().TxMgr.CatVer())
	if ok {
		ownCacheHits.Add(1)
	}
	if !ok {
		return ""
	}
	if pl, isPlan := v.(*plan.Plan); isPlan {
		return pl.Explain()
	}
	return ""
}

// planDistribution is, per statement kind, how often the planner picked
// each plan (keyed by EXPLAIN text) and one instance of each plan.
type planDistribution struct {
	draws int
	count map[string]map[string]int
	plans map[string]map[string]*plan.Plan
}

// planVariants plans every statement n times through the public planner.
// Scalar subqueries, which the planner executes, are evaluated once per
// statement text and reused.
func planVariants(e *engine.Engine, stmts map[string]*sqlparser.SelectStmt, n int) (*planDistribution, error) {
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	snap := t.Snapshot()
	memo := map[string]types.Datum{}
	var memoPlanner func() *planner.Planner
	memoPlanner = func() *planner.Planner {
		p := newPlanner(e, snap)
		p.SubqueryEval = func(sub *sqlparser.SelectStmt) (types.Datum, error) {
			k := sub.String()
			if d, ok := memo[k]; ok {
				return d, nil
			}
			pl, err := memoPlanner().PlanSelect(sub)
			if err != nil {
				return types.Null, err
			}
			res, err := cl.Dispatch(context.Background(), pl, nil)
			if err != nil {
				return types.Null, err
			}
			d := types.Null
			if len(res.Rows) > 0 && len(res.Rows[0]) > 0 {
				d = res.Rows[0][0]
			}
			memo[k] = d
			return d, nil
		}
		return p
	}
	pd := &planDistribution{draws: n, count: map[string]map[string]int{}, plans: map[string]map[string]*plan.Plan{}}
	for kind, sel := range stmts {
		pd.count[kind] = map[string]int{}
		pd.plans[kind] = map[string]*plan.Plan{}
		for i := 0; i < n; i++ {
			p := memoPlanner()
			p.GenericParams = sqlparser.MaxParam(sel) > 0
			pl, err := p.PlanSelect(sel)
			if err != nil {
				return nil, fmt.Errorf("plan %s: %w", kind, err)
			}
			v := pl.Explain()
			pd.count[kind][v]++
			if _, ok := pd.plans[kind][v]; !ok {
				pd.plans[kind][v] = pl
			}
		}
	}
	return pd, nil
}

// offModal is the share of plannings, averaged over statements, that
// did not pick the statement's most frequent plan. A deterministic
// planner scores 0.
func (pd *planDistribution) offModal() float64 {
	var sum float64
	for _, counts := range pd.count {
		most := 0
		for _, c := range counts {
			if c > most {
				most = c
			}
		}
		sum += 1 - float64(most)/float64(pd.draws)
	}
	return ratio(sum, float64(len(pd.count)))
}

// expectedTimes returns each statement kind's expected time in ms over
// the planner's choices: the mean measured time of each plan variant,
// weighted by how often the planner picks it. A variant the run's
// executions never drew is dispatched once here (checked like the
// rest) so its time is measured too.
func (pd *planDistribution) expectedTimes(e *engine.Engine, sr *serialRun, check func(kind string, rows []types.Row) error, out *outcome) (map[string]float64, error) {
	samples := map[string]map[string][]float64{}
	for _, r := range sr.records {
		if r.phase != phaseMeasured {
			continue
		}
		if samples[r.kind] == nil {
			samples[r.kind] = map[string][]float64{}
		}
		samples[r.kind][r.variant] = append(samples[r.kind][r.variant], ms(r.lat))
	}
	times := map[string]float64{}
	kinds := make([]string, 0, len(pd.count))
	for kind := range pd.count {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		for v, c := range pd.count[kind] {
			got := samples[kind][v]
			if len(got) == 0 {
				d, err := pd.dispatchOnce(e, kind, v, check, out)
				if err != nil {
					return nil, err
				}
				got = []float64{d}
			}
			times[kind] += float64(c) / float64(pd.draws) * mean(got)
		}
	}
	return times, nil
}

// dispatchOnce runs one plan variant directly and returns its time in
// ms.
func (pd *planDistribution) dispatchOnce(e *engine.Engine, kind, variant string, check func(string, []types.Row) error, out *outcome) (float64, error) {
	pl, err := pd.plans[kind][variant].Clone()
	if err != nil {
		return 0, err
	}
	out.attempted++
	start := now()
	res, err := e.Cluster().Dispatch(context.Background(), pl, nil)
	took := ms(since(start))
	if err == nil {
		err = check(kind, res.Rows)
	}
	if err != nil {
		out.fail("%s (plan variant run directly): %v", kind, err)
	}
	return took, nil
}
