package interconnect

import "time"

// tombGens is the number of generations one tombstone lifetime spans.
// A tombstone lives at least its set's lifetime and at most
// 1+1/tombGens of it.
const tombGens = 4

// tombstones is a set of keys that expire after a fixed lifetime, with
// expiry cost independent of the set's size. Keys are bucketed into
// generations of lifetime/tombGens by insertion time; a generation is
// dropped whole, as one map, once its youngest key has outlived the
// lifetime. A periodic expire therefore inspects tombGens+1 generation
// headers no matter how many keys they hold, where a per-key timestamp
// map would walk every live key on every tick.
//
// Membership is judged against the caller's clock, not the last expire,
// so a lagging timer never stretches or shortens a lifetime: expire
// only reclaims memory. Callers serialize access.
type tombstones[K comparable] struct {
	base time.Time
	step time.Duration
	gens [tombGens + 1]tombGen[K]
}

// tombGen holds the keys inserted during one step-long epoch.
type tombGen[K comparable] struct {
	epoch int64
	set   map[K]struct{}
}

func newTombstones[K comparable](life time.Duration, now time.Time) *tombstones[K] {
	step := (life + tombGens - 1) / tombGens
	if step <= 0 {
		step = 1
	}
	return &tombstones[K]{base: now, step: step}
}

func (t *tombstones[K]) epoch(now time.Time) int64 {
	return int64(now.Sub(t.base) / t.step)
}

// live reports whether g holds keys that have not yet expired at epoch e.
func (g *tombGen[K]) live(e int64) bool {
	return g.set != nil && e-g.epoch <= tombGens
}

// add inserts k with the lifetime starting at now.
func (t *tombstones[K]) add(k K, now time.Time) {
	e := t.epoch(now)
	// The tombGens+1 live epochs occupy distinct slots, so the slot of
	// epoch e holds either e itself or an expired generation.
	g := &t.gens[uint64(e)%uint64(len(t.gens))]
	if g.set == nil || g.epoch != e {
		g.epoch, g.set = e, map[K]struct{}{}
	}
	g.set[k] = struct{}{}
}

// has reports whether k was added no longer than the lifetime ago.
func (t *tombstones[K]) has(k K, now time.Time) bool {
	e := t.epoch(now)
	for i := range t.gens {
		g := &t.gens[i]
		if !g.live(e) {
			continue
		}
		if _, ok := g.set[k]; ok {
			return true
		}
	}
	return false
}

// expire releases every generation whose keys have all expired.
func (t *tombstones[K]) expire(now time.Time) {
	e := t.epoch(now)
	for i := range t.gens {
		if g := &t.gens[i]; g.set != nil && !g.live(e) {
			g.set = nil
		}
	}
}
