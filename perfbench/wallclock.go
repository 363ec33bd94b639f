package main

import "time"

// The benchmark measures real wall time by design. These wrappers are
// its only clock reads, so the repository's clock discipline checker has
// one place to be told so.

func now() time.Time {
	//hawqcheck:ignore clockwall — the benchmark measures real wall time
	return time.Now()
}

func since(t time.Time) time.Duration {
	//hawqcheck:ignore clockwall — the benchmark measures real wall time
	return time.Since(t)
}

func sleepUntil(t time.Time) {
	//hawqcheck:ignore clockwall — the benchmark measures real wall time
	time.Sleep(time.Until(t))
}

func newTicker(d time.Duration) *time.Ticker {
	//hawqcheck:ignore clockwall — the benchmark measures real wall time
	return time.NewTicker(d)
}
