// churn.go implements population churn on the count-based backend: joins and
// leaves act on the state multiset directly (agent identities do not exist in
// species form), and the population size n becomes mutable mid-run. The
// stepping paths already recompute the pair mass n(n−1) per call, so the only
// extra machinery is resizing bookkeeping: widening the declared key space
// when the model's key space expands with n, and applying the model's Rescale
// remap when a shrink strands keys the new size makes invalid (e.g. CIW ranks
// above the new n, which could otherwise never self-correct).

package species

import (
	"fmt"

	"sspp/internal/rng"
	"sspp/internal/workload"
)

// CanChurn reports whether the running model declares churn hooks. The
// methods below exist on every System, so sim.AsChurnable reads this before
// reporting the sim.Churnable capability.
func (s *System) CanChurn() bool { return s.model.Churn != nil }

// ChurnBounds returns the model's declared population bounds (zero values
// when the model has no churn hooks).
func (s *System) ChurnBounds() (minN, maxN int) {
	if s.model.Churn == nil {
		return 0, 0
	}
	return s.model.Churn.MinN, s.model.Churn.MaxN
}

// Join adds one agent in the state the model's Join hook picks for the
// adversary class. The hook sees the pre-join configuration but the post-join
// size, as the agent-level Churnable protocols do. A join state outside the
// rescaled state space is refused before the system changes.
func (s *System) Join(class string, src *rng.PRNG) error {
	ch := s.model.Churn
	if ch == nil {
		return fmt.Errorf("species: model has no churn hooks")
	}
	key, err := ch.Join(class, s.n+1, s, src)
	if err != nil {
		return err
	}
	space, remap := s.rescale(s.n + 1)
	if outside(key, space) {
		s.rescale(s.n)
		return fmt.Errorf("species: join state %#x outside the rescaled state space %d", key, space)
	}
	s.resize(s.n+1, space, remap)
	s.add(key, 1)
	return nil
}

// Leave removes one uniformly chosen agent — count-weighted over states, in
// Each order, the same law as a uniform agent pick. The population may dip
// to one agent mid-event-group (a replacement pair at the protocol's minimum
// size); the workload validator guarantees every group boundary restores the
// declared bounds.
func (s *System) Leave(src *rng.PRNG) error {
	if s.model.Churn == nil {
		return fmt.Errorf("species: model has no churn hooks")
	}
	if s.n <= 1 {
		return fmt.Errorf("species: cannot remove an agent from a population of %d", s.n)
	}
	u := int64(src.Uint64n(uint64(s.n)))
	var key uint64
	found := false
	s.Each(func(k uint64, c int64) bool {
		if u < c {
			key, found = k, true
			return false
		}
		u -= c
		return true
	})
	if !found {
		return fmt.Errorf("species: leave sampling ran past the population (corrupted counts)")
	}
	s.add(key, -1)
	space, remap := s.rescale(s.n - 1)
	s.resize(s.n-1, space, remap)
	s.reap(key)
	return nil
}

// rescale lets the model update any internal size state its React closure
// reads for population size nNew (its Rescale hook), and returns the state
// space keys must then lie in with the model's remap of the keys the new
// size strands. The declared space only widens, and stays 0 when the model
// declares none. Calling rescale(s.n) undoes a rescale the caller abandons.
func (s *System) rescale(nNew int) (space uint64, remap func(uint64) uint64) {
	space = s.space
	if ch := s.model.Churn; ch != nil && ch.Rescale != nil {
		var next uint64
		next, remap = ch.Rescale(nNew)
		if space > 0 {
			space = max(space, next)
		}
	}
	return space, remap
}

// resize moves the population size to nNew after rescale returned space
// and remap: it widens the declared space and applies the remap.
func (s *System) resize(nNew int, space uint64, remap func(uint64) uint64) {
	s.growSpace(space)
	if remap != nil {
		s.remapKeys(remap)
	}
	s.n = nNew
}

// growSpace widens the declared state space to [0, space), migrating the
// lookup to the hash map when the space outgrows the dense bound. The dense
// table itself grows only as keys arrive (allocSlot).
func (s *System) growSpace(space uint64) {
	if space <= s.space {
		return
	}
	s.space = space
	if s.sparse == nil && space > maxDense {
		s.sparse = make(map[uint64]int32, s.occupied)
		for key, slot := range s.dense {
			if slot >= 0 {
				s.sparse[uint64(key)] = slot
			}
		}
		s.dense = nil
	}
}

// remapKeys merges the counts of every occupied state the remap moves into
// its image state.
func (s *System) remapKeys(remap func(uint64) uint64) {
	type move struct {
		from, to uint64
		count    int64
	}
	var moves []move
	s.Each(func(key uint64, c int64) bool {
		if to := remap(key); to != key {
			moves = append(moves, move{key, to, c})
		}
		return true
	})
	for _, m := range moves {
		s.add(m.from, -m.count)
		s.add(m.to, m.count)
		s.reap(m.from)
	}
}

// ApplyDeltas applies a recorded event's exact effect on the state multiset
// (the trace-replay path): negative deltas first, then the size change and
// rescale bookkeeping, then positive deltas. The remap is deliberately NOT
// re-applied — the recorded deltas already include any clamp merges the
// original event performed, so re-running it would double-apply them; Rescale
// is still called so the model's internal size state and the key space stay
// in sync with the new n. Every delta is validated before any is applied, so
// a rejected event leaves the system unchanged.
func (s *System) ApplyDeltas(deltas []workload.KeyDelta) error {
	var shift int64
	for _, d := range deltas {
		shift += d.Delta
		if d.Delta < 0 && s.Count(d.Key) < -d.Delta {
			return fmt.Errorf("species: recorded delta removes %d agents from state %#x holding %d", -d.Delta, d.Key, s.Count(d.Key))
		}
	}
	nNew := s.n + int(shift)
	if nNew < 1 {
		return fmt.Errorf("species: recorded deltas drop the population to %d", nNew)
	}
	space := s.space
	if nNew != s.n {
		space, _ = s.rescale(nNew)
	}
	for _, d := range deltas {
		if d.Delta > 0 && outside(d.Key, space) {
			if nNew != s.n {
				s.rescale(s.n)
			}
			return fmt.Errorf("species: recorded delta state %#x outside the rescaled state space %d", d.Key, space)
		}
	}
	for _, d := range deltas {
		if d.Delta < 0 {
			s.add(d.Key, d.Delta)
		}
	}
	s.resize(nNew, space, nil)
	for _, d := range deltas {
		if d.Delta > 0 {
			s.add(d.Key, d.Delta)
		}
	}
	for _, d := range deltas {
		if d.Delta < 0 {
			s.reap(d.Key)
		}
	}
	return nil
}
