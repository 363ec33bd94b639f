package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hawq/internal/sqlparser"
	"hawq/internal/tpch"
	"hawq/internal/types"
)

// The analytic workload: one session runs the 22 TPC-H queries as text
// SQL in repeated passes over the append-only row tables — the paper's
// single-stream power run (§8, Figure 6). AO decoding, the executor's
// hash joins and aggregates, and motion traffic do the work.

func runAnalytic(cfg *config, r *rig) (*outcome, error) {
	s := r.e.NewSession()
	tr := newTracer()
	lay := &layered{e: r.e, t: tr}
	w := &window{cfg: cfg}
	out := &outcome{metrics: map[string]float64{}}
	q1Cutoff := types.MustParseDate("1998-09-02").I
	q1 := bruteQ1(r.data.lines, func(l types.Row) bool { return l[lShipdate].I <= q1Cutoff }, true)
	brute := map[int][]types.Row{1: q1, 6: bruteQ6(r.data.lines)}
	// Every pass must return the first pass's answers; Q1 and Q6 must
	// also match a computation over the generated rows.
	first := map[int][]types.Row{}
	check := func(q int, rows []types.Row) error {
		if want, ok := first[q]; !ok {
			first[q] = rows
		} else if !rowsMatch(rows, want) {
			return fmt.Errorf("answer differs from the first pass (%d rows, first had %d)", len(rows), len(want))
		}
		if want, ok := brute[q]; ok && !aggregatesMatch(rows, want) {
			return fmt.Errorf("answer differs from the generated data: got %v, want %v", rows, want)
		}
		return nil
	}
	// The power run's order, rotated to start at a seeded query.
	order := tpch.AllQueryNumbers()
	at := rand.New(rand.NewSource(cfg.seed)).Intn(len(order))
	queries := append(order[at:len(order):len(order)], order[:at]...)
	stmts := map[string]*sqlparser.SelectStmt{}
	var pass []step
	for _, q := range queries {
		q := q
		kind := fmt.Sprintf("Q%d", q)
		stmt, err := sqlparser.ParseOne(tpch.Queries[q])
		if err != nil {
			return nil, err
		}
		stmts[kind] = stmt.(*sqlparser.SelectStmt)
		key := cacheKey(r.e, stmts[kind])
		pass = append(pass, step{kind: kind, run: func(traced bool) stepResult {
			// Ad-hoc SQL text is planned on every execution, as HAWQ
			// and PostgreSQL do for unprepared statements: the plan
			// cache is emptied first. The engine files the plan it
			// made in the cache, which tells which plan ran.
			r.e.PlanCache().Flush()
			var rows []types.Row
			if traced {
				o := tr.begin(kind)
				var err error
				rows, err = lay.query(o, tpch.Queries[q])
				o.variant = cachedVariant(r.e, key)
				o.end()
				if err != nil {
					return stepResult{err: err}
				}
			} else {
				res, err := s.Query(tpch.Queries[q])
				if err != nil {
					return stepResult{err: err}
				}
				rows = res.Rows
			}
			return stepResult{rowsOut: len(rows), variant: cachedVariant(r.e, key), err: check(q, rows)}
		}})
	}
	sr, err := runSerial(cfg, pass, w, out)
	if err != nil {
		return nil, err
	}
	// The planner's join order is not deterministic (Q5 picks among
	// plans that differ 30x in run time), so one run sees only a few
	// draws. Each query's time is weighted over its plan variants by how
	// often the planner picks them.
	pv, err := planVariants(r.e, stmts, variantDraws)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["planner.offmodal_plan_ratio"] = pv.offModal()
	if cfg.trace {
		lat, _ := sr.measured()
		n := float64(len(lat.all()))
		sr.traceMetrics(m, w, tr, n, 0)
		// The 22 queries read every TPC-H table.
		if m["storage.ao_decode_ns_per_row"], err = aoDecodeNsPerRow(r.e, tpch.TableNames...); err != nil {
			return nil, err
		}
		m["storage.co_decode_ns_per_row"] = 0
		m["storage.write_ns_per_row"] = 0
		return out, nil
	}
	times, err := pv.expectedTimes(r.e, sr, func(kind string, rows []types.Row) error {
		var q int
		fmt.Sscanf(kind, "Q%d", &q)
		return check(q, rows)
	}, out)
	if err != nil {
		return nil, err
	}
	passRows := 0
	for _, rows := range first {
		passRows += len(rows)
	}
	perQuery := values(times)
	suite := sumValues(times) / 1000
	m["suite_s"] = suite
	m["qps"] = float64(len(pass)) / suite
	m["mean_ms"] = mean(perQuery)
	m["tail_ms"] = quantile(perQuery, 0.90)
	m["geomean_ms"] = geomean(perQuery)
	m["rows_per_s"] = float64(passRows) / suite
	// Every query's answer is checked against the first pass (Q1 and Q6
	// also against the generated rows), so the checked statements are
	// all 22. Q1 and Q6 alone run once a pass, too few for a steady mean.
	m["check_ms"] = m["mean_ms"]
	if m["stored_bytes_per_row"], err = storedBytesPerRow(r.e, tpch.TableNames...); err != nil {
		return nil, err
	}
	r.peakHeapMB = w.peakMB
	_, timed := sr.measured()
	win := sr.untraced.Seconds()
	out.report = append(out.report,
		fmt.Sprintf("analytic: %d queries in %.1fs (%d full passes); suite_s=%.3f geomean_ms=%.2f drift=%+.3f offmodal_plans=%.3f",
			len(timed), win, len(sr.passes), suite, m["geomean_ms"], sr.drift(), pv.offModal()),
		fmt.Sprintf("error_ratio=%g", ratio(float64(out.failed), float64(out.attempted))))
	line := "pass seconds:"
	for _, p := range sr.passes {
		line += fmt.Sprintf(" %.3f", p.Seconds())
	}
	out.report = append(out.report, line)
	line = "per-query ms (plan-weighted):"
	for _, q := range tpch.AllQueryNumbers() {
		line += fmt.Sprintf(" Q%d=%.1f", q, times[fmt.Sprintf("Q%d", q)])
	}
	out.report = append(out.report, line)
	return out, nil
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Column positions in generated lineitem rows.
const (
	lQuantity = 4
	lPrice    = 5
	lDiscount = 6
	lTax      = 7
	lFlag     = 8
	lStatus   = 9
	lShipdate = 10
)

// bruteQ1 computes a Q1-shaped aggregate over the generated lineitem
// rows keep accepts: per (returnflag, linestatus) group in order, the
// sums, averages (when full) and count the query returns. With Q1's
// ship-date cutoff and averages it is TPC-H Q1; without averages it is
// the ingest workload's check aggregate.
func bruteQ1(lines []types.Row, keep func(types.Row) bool, full bool) []types.Row {
	type acc struct{ qty, price, disc, charge, discount, n float64 }
	groups := map[[2]string]*acc{}
	for _, l := range lines {
		if !keep(l) {
			continue
		}
		k := [2]string{l[lFlag].S, l[lStatus].S}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		price, d := l[lPrice].Float(), l[lDiscount].Float()
		a.qty += l[lQuantity].Float()
		a.price += price
		a.disc += price * (1 - d)
		a.charge += price * (1 - d) * (1 + l[lTax].Float())
		a.discount += d
		a.n++
	}
	var out []types.Row
	for _, flag := range []string{"A", "N", "R"} {
		for _, status := range []string{"F", "O"} {
			a := groups[[2]string{flag, status}]
			if a == nil {
				continue
			}
			row := types.Row{types.NewString(flag), types.NewString(status),
				types.NewFloat64(a.qty), types.NewFloat64(a.price), types.NewFloat64(a.disc)}
			if full {
				row = append(row, types.NewFloat64(a.charge), types.NewFloat64(a.qty/a.n),
					types.NewFloat64(a.price/a.n), types.NewFloat64(a.discount/a.n))
			}
			out = append(out, append(row, types.NewInt64(int64(a.n))))
		}
	}
	return out
}

// bruteQ6 computes TPC-H Q6's revenue over generated lineitem rows.
func bruteQ6(lines []types.Row) []types.Row {
	lo, hi := types.MustParseDate("1994-01-01").I, types.MustParseDate("1995-01-01").I
	var rev float64
	for _, l := range lines {
		ship := l[lShipdate].I
		// Discounts and quantities are decimals with scale 2.
		if ship >= lo && ship < hi && l[lDiscount].I >= 5 && l[lDiscount].I <= 7 && l[lQuantity].I < 2400 {
			rev += l[lPrice].Float() * l[lDiscount].Float()
		}
	}
	return []types.Row{{types.NewFloat64(rev)}}
}

// aggregatesMatch compares an aggregate result with a brute-force one:
// text columns exactly, numbers to a relative 1e-6 (the engine's
// decimal averages round).
func aggregatesMatch(got, want []types.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if w.K == types.KindString {
				if g.String() != w.S {
					return false
				}
				continue
			}
			a, b := g.Float(), w.Float()
			if math.Abs(a-b) > 1e-6*math.Max(math.Abs(a), math.Abs(b))+1e-6 {
				return false
			}
		}
	}
	return true
}
