package main

import (
	"time"

	"hawq/internal/obs"
	"hawq/internal/plan"
)

// execStats folds the per-operator statistics every traced dispatch
// ships back (the data behind EXPLAIN ANALYZE) into per-layer totals.
// Operator wall time is inclusive of the operator's children in the
// same slice; self time subtracts them. Totals are summed over every
// gang member, so they are busy time, not elapsed time.
type execStats struct {
	self         map[string]time.Duration // operator class → self time
	recvWait     time.Duration            // motion receive (leaf) time
	dispatchSelf time.Duration            // dispatch wall minus the QD slice's run
	rowsExamined int64
	pagesSkipped int64
	rtFilterRows int64
	spillBytes   int64
	qes          int64
}

// opClass names the operator classes with a self-time metric.
func opClass(n plan.Node) string {
	switch n.(type) {
	case *plan.Scan:
		return "scan"
	case *plan.HashJoin:
		return "hashjoin"
	case *plan.HashAgg:
		return "hashagg"
	case *plan.Sort:
		return "sort"
	case *plan.Motion:
		return "motion_send"
	}
	return ""
}

// add folds one dispatch: its plan, the gang's statistics and the
// dispatch's wall time.
func (x *execStats) add(pl *plan.Plan, stats []obs.SliceStats, dispatch time.Duration) {
	if x.self == nil {
		x.self = map[string]time.Duration{}
	}
	x.qes += int64(qeCount(pl))
	nodes := make([][]plan.Node, len(pl.Slices))
	kids := make([][][]int, len(pl.Slices))
	for si, s := range pl.Slices {
		var walk func(n plan.Node) int
		walk = func(n plan.Node) int {
			id := len(nodes[si])
			nodes[si] = append(nodes[si], n)
			kids[si] = append(kids[si], nil)
			for _, c := range n.Children() {
				kids[si][id] = append(kids[si][id], walk(c))
			}
			return id
		}
		walk(s.Root)
	}
	var qdRun time.Duration
	for _, ss := range stats {
		if ss.Slice < 0 || ss.Slice >= len(nodes) {
			continue
		}
		wall := make([]time.Duration, len(nodes[ss.Slice]))
		for _, st := range ss.Ops {
			if st.Node >= 0 && st.Node < len(wall) {
				wall[st.Node] = st.Wall
			}
		}
		if ss.Slice == 0 && len(wall) > 0 {
			qdRun = wall[0]
		}
		for _, st := range ss.Ops {
			if st.Node < 0 || st.Node >= len(wall) {
				continue
			}
			n := nodes[ss.Slice][st.Node]
			x.pagesSkipped += st.PagesSkipped
			x.rtFilterRows += st.RTFilterRows
			x.spillBytes += st.SpillBytes
			if _, ok := n.(*plan.MotionRecv); ok {
				x.recvWait += st.Wall
				continue
			}
			if sc, ok := n.(*plan.Scan); ok {
				for _, sf := range sc.SegFiles {
					if sf.SegmentID == ss.Segment {
						x.rowsExamined += sf.Tuples
					}
				}
			}
			class := opClass(n)
			if class == "" {
				continue
			}
			self := st.Wall
			for _, c := range kids[ss.Slice][st.Node] {
				self -= wall[c]
			}
			x.self[class] += self
		}
	}
	x.dispatchSelf += dispatch - qdRun
}

// metrics adds the executor.*, cluster.* and resource.* per-op metrics;
// ops is the number of traced ops, rowsOut the result rows they
// returned.
func (x *execStats) metrics(m map[string]float64, ops, rowsOut float64) {
	perOpMS := func(d time.Duration) float64 { return ratio(ms(d), ops) }
	for _, class := range []string{"scan", "hashjoin", "hashagg", "sort", "motion_send"} {
		m["executor."+class+"_self_ms"] = perOpMS(x.self[class])
	}
	m["executor.motion_recv_wait_ms"] = perOpMS(x.recvWait)
	m["executor.rows_examined_per_row_returned"] = ratio(float64(x.rowsExamined), rowsOut)
	m["executor.pages_skipped_per_op"] = ratio(float64(x.pagesSkipped), ops)
	m["executor.rtfilter_rows_removed_per_op"] = ratio(float64(x.rtFilterRows), ops)
	m["resource.spill_bytes_per_op"] = ratio(float64(x.spillBytes), ops)
	m["cluster.dispatch_self_us"] = ratio(float64(x.dispatchSelf)/1e3, ops)
	m["cluster.qes_per_op"] = ratio(float64(x.qes), ops)
}
