package main

import (
	"time"
)

// phase is where a run is on its timeline.
type phase int

const (
	phaseWarmup   phase = iota // unmeasured: caches fill, steady state forms
	phaseMeasured              // untraced, measured
	phaseTraced                // traced (second half of a --trace 1 window)
	phaseDone
)

// schedule is a run's timeline: an unmeasured warmup, then the measured
// window. A traced run measures its first half untraced (end-to-end
// latencies for coverage, counters, CPU profile) and traces the second.
type schedule struct {
	start  time.Time
	warmup time.Duration
	window time.Duration
	traced bool
}

func newSchedule(cfg *config, warmup time.Duration) schedule {
	return schedule{start: now(), warmup: warmup, window: cfg.window(), traced: cfg.trace}
}

func (s schedule) measureStart() time.Time { return s.start.Add(s.warmup) }

// untracedEnd is where the untraced measured window ends.
func (s schedule) untracedEnd() time.Time {
	if s.traced {
		return s.measureStart().Add(s.window / 2)
	}
	return s.end()
}

func (s schedule) end() time.Time { return s.measureStart().Add(s.window) }

// untracedWindow is the length of the untraced measured window.
func (s schedule) untracedWindow() time.Duration { return s.untracedEnd().Sub(s.measureStart()) }

func (s schedule) phaseAt(t time.Time) phase {
	switch {
	case t.Before(s.measureStart()):
		return phaseWarmup
	case t.Before(s.untracedEnd()):
		return phaseMeasured
	case t.Before(s.end()):
		return phaseTraced
	}
	return phaseDone
}

func (s schedule) now() phase {
	return s.phaseAt(now())
}

// window gathers the process-wide measurements of the untraced measured
// window: counter deltas, peak heap and, in a traced run, the CPU
// profile.
type window struct {
	cfg    *config
	before procStats
	after  procStats
	heap   *heapSampler
	prof   *cpuProfile
	peakMB float64
	shares map[string]float64
	opened bool
	closed bool
}

func (w *window) open() error {
	if w.opened {
		return nil
	}
	w.opened = true
	w.heap = startHeapSampler()
	if w.cfg.trace {
		p, err := startCPUProfile(profilePath(w.cfg))
		if err != nil {
			return err
		}
		w.prof = p
	}
	w.before = readProcStats()
	return nil
}

func (w *window) close() error {
	if !w.opened || w.closed {
		return nil
	}
	w.closed = true
	w.after = readProcStats()
	w.peakMB = w.heap.stopMB()
	if w.prof != nil {
		shares, err := w.prof.stop()
		if err != nil {
			return err
		}
		w.shares = shares
	}
	return nil
}

func (w *window) delta() delta { return delta{before: w.before, after: w.after} }

// profileMetrics adds <module>.cpu_share for every module.
func (w *window) profileMetrics(m map[string]float64) {
	for _, mod := range cpuModules {
		m[mod+".cpu_share"] = w.shares[mod]
	}
}

// timedOp is a measured op's start (seconds since the window start)
// and statement kind.
type timedOp struct {
	start float64
	kind  string
}

// driftRatio compares the work done in the second half of a window with
// the first, minus one; near zero means steady. Each op counts as its
// kind's median latency, so a half that happened to run the long
// queries of a mix does not read as a change of speed.
func driftRatio(ops []timedOp, window float64, kindMedian map[string]float64) float64 {
	var first, second float64
	for _, o := range ops {
		if o.start < window/2 {
			first += kindMedian[o.kind]
		} else {
			second += kindMedian[o.kind]
		}
	}
	return ratio(second, first) - 1
}
