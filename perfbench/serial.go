package main

import (
	"time"
)

// step is one statement of a single-session workload's pass. run
// executes it (through the traced layers when traced is set) and checks
// its answer.
type step struct {
	kind string
	run  func(traced bool) stepResult
}

// stepResult is what one execution of a step reports.
type stepResult struct {
	rowsIn, rowsOut int
	// variant identifies the plan the statement ran with, when known.
	variant string
	err     error
}

// record is one executed step.
type record struct {
	phase   phase
	kind    string
	variant string
	start   float64 // seconds since the measured window's start
	lat     time.Duration
	rowsIn  int
	rowsOut int
}

// serialRun is the outcome of driving a pass repeatedly.
type serialRun struct {
	sched   schedule
	records []record
	// warmPass is the unmeasured first pass's wall time; passLen its
	// statement count.
	warmPass time.Duration
	passLen  int
	// passes are the wall times of passes run entirely untraced inside
	// the measured window.
	passes []time.Duration
	// untraced is the untraced measured window's actual length: the
	// window, extended to the end of the pass in progress.
	untraced time.Duration
}

// runSerial runs one unmeasured warmup pass, then passes until the
// window closes, finishing the pass in progress so every statement of
// the pass has measured samples. Failures are recorded in out and do
// not stop the run.
func runSerial(cfg *config, pass []step, w *window, out *outcome) (*serialRun, error) {
	sr := &serialRun{passLen: len(pass)}
	warmStart := now()
	for _, st := range pass {
		out.attempted++
		if res := st.run(false); res.err != nil {
			out.fail("warmup %s: %v", st.kind, res.err)
		}
	}
	sr.warmPass = since(warmStart)
	sr.sched = newSchedule(cfg, 0)
	if err := w.open(); err != nil {
		return nil, err
	}
	var lastUntraced time.Time
	for {
		passStart := now()
		allUntraced := true
		for _, st := range pass {
			start := now()
			ph := sr.sched.phaseAt(start)
			if ph == phaseDone {
				// Finish the pass: its tail belongs to the window's last
				// phase.
				ph = phaseMeasured
				if cfg.trace {
					ph = phaseTraced
				}
			}
			if ph == phaseTraced {
				allUntraced = false
				if err := w.close(); err != nil {
					return nil, err
				}
			}
			out.attempted++
			res := st.run(ph == phaseTraced)
			lat := since(start)
			if res.err != nil {
				out.fail("%s: %v", st.kind, res.err)
			}
			sr.records = append(sr.records, record{
				phase: ph, kind: st.kind, variant: res.variant, start: start.Sub(sr.sched.start).Seconds(),
				lat: lat, rowsIn: res.rowsIn, rowsOut: res.rowsOut,
			})
			if ph == phaseMeasured {
				lastUntraced = start.Add(lat)
			}
		}
		if allUntraced {
			sr.passes = append(sr.passes, since(passStart))
		}
		if sr.sched.now() == phaseDone {
			break
		}
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	sr.untraced = lastUntraced.Sub(sr.sched.start)
	return sr, nil
}

// measured returns the untraced measured records' latencies by kind and
// their timed starts.
func (sr *serialRun) measured() (*latencies, []timedOp) {
	return sr.measuredBy(func(r record) string { return r.kind })
}

// measuredByVariant is measured keyed by kind and plan variant.
func (sr *serialRun) measuredByVariant() (*latencies, []timedOp) {
	return sr.measuredBy(func(r record) string { return variantKey(r.kind, r.variant) })
}

func (sr *serialRun) measuredBy(key func(record) string) (*latencies, []timedOp) {
	lat := newLatencies()
	var timed []timedOp
	for _, r := range sr.records {
		if r.phase == phaseMeasured {
			lat.add(key(r), r.lat)
			timed = append(timed, timedOp{start: r.start, kind: key(r)})
		}
	}
	return lat, timed
}

// drift is driftRatio over the untraced records, with each op weighted
// by the median latency of its kind and plan variant: a half that drew
// a slow plan did more work, not slower work.
func (sr *serialRun) drift() float64 {
	lat, timed := sr.measuredByVariant()
	return driftRatio(timed, sr.untraced.Seconds(), lat.kindMedians())
}

// rows sums the rows written and returned by untraced measured records.
func (sr *serialRun) rows() (in, out int) {
	for _, r := range sr.records {
		if r.phase == phaseMeasured {
			in += r.rowsIn
			out += r.rowsOut
		}
	}
	return in, out
}

// traceMetrics adds the per-layer metrics shared by the serial
// workloads; commits and rowsIn describe the untraced window.
func (sr *serialRun) traceMetrics(m map[string]float64, w *window, tr *tracer, commits float64, rowsIn float64) {
	lat, timed := sr.measuredByVariant()
	n := float64(len(timed))
	d := w.delta()
	d.engineCounters(m, n, commits, rowsIn)
	d.runtimeMetrics(m, n)
	w.profileMetrics(m)
	tr.layerMetrics(m)
	tr.coverage(m, lat)
	win := sr.untraced.Seconds()
	m["load.drift_ratio"] = sr.drift()
	m["load.warmup_ratio"] = ratio(ratio(n, win), ratio(float64(sr.passLen), sr.warmPass.Seconds()))
}
