// Package species implements the count-based simulation backend: a
// population is stored as a multiset of states (state key → agent count)
// instead of one struct per agent, and interactions are drawn by sampling
// ordered state pairs from the counts. Because the population model is
// symmetric — the uniform scheduler picks agents uniformly and the
// transition depends only on the two states — the multiset is a Markov
// chain with exactly the law of the agent-level process projected to
// counts, so convergence-time distributions agree between backends (the
// equivalence is enforced statistically in equiv_test.go).
//
// Per-interaction cost depends on the number of occupied states, not on n:
// state pairs are drawn from a Walker alias table kept current under
// incremental count updates (sampler.go), and for protocols that react only
// on the diagonal (sim.CompactModel.Diagonal, e.g. CIW) whole runs of
// silent interactions are skipped with one geometric draw. This reaches
// populations of 10⁶–10⁸ agents that the agent-level backend cannot touch.
//
// A System implements sim.Protocol plus the sim.CountBased capability. Agent
// identities do not exist: Interact ignores its arguments and draws a state
// pair from the bound randomness stream, and the run engine steps the
// backend in bulk (StepMany) under uniform schedulers only.
package species

import (
	"fmt"
	"math"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

// maxDense bounds the dense key→slot lookup table; models declaring a
// larger state space fall back to a hash map.
const maxDense = 1 << 27

// System is a count-based population. Construct with NewSystem and wrap
// with Capable so the engine sees exactly the capability set the model
// declares.
type System struct {
	model sim.CompactModel
	n     int

	// Slot storage: one slot per tracked state. Slots of states whose count
	// returns to zero are recycled through the free list.
	keys     []uint64
	counts   []int64
	isLeader []bool
	free     []int32

	// Key → slot lookup: a dense array for models declaring a StateSpace
	// up to maxDense, a hash map (non-nil) otherwise. The dense array grows
	// on demand, doubling up to the declared space, so a large space costs
	// only as much as the keys in use.
	dense  []int32
	sparse map[uint64]int32
	space  uint64 // declared state space (0: undeclared); keys must lie below it

	occupied int
	leaders  int64
	clock    uint64
	diagonal bool
	samp     sampler
	src      *rng.PRNG

	// Continuous-clock state (StartContinuous, continuous.go): pt accrues
	// exponential holding times at rate n/2 from the dedicated timeSrc
	// stream, and leap enables τ-leaped bulk stepping (leap.go).
	continuous bool
	leap       bool
	pt         float64
	timeSrc    *rng.PRNG
	exactChunk uint64
	lw         leapWorkspace
}

// The System implements the minimal protocol contract, bulk stepping, and
// the churn method set (reported as a capability only when CanChurn holds).
var (
	_ sim.Protocol   = (*System)(nil)
	_ sim.CountBased = (*System)(nil)
	_ sim.CountView  = (*System)(nil)
	_ sim.Churnable  = (*System)(nil)
)

// NewSystem builds a System from a compact model, seeding the fallback
// sampling stream with defaultSeed (the run engine rebinds its own uniform
// stream via BindSource before stepping).
func NewSystem(model sim.CompactModel, defaultSeed uint64) (*System, error) {
	if model.Init == nil || model.React == nil {
		return nil, fmt.Errorf("species: compact model must provide Init and React")
	}
	if model.Leader == nil && model.Correct == nil {
		return nil, fmt.Errorf("species: compact model must provide Leader or Correct")
	}
	keys, counts := model.Init()
	if len(keys) != len(counts) {
		return nil, fmt.Errorf("species: Init returned %d keys but %d counts", len(keys), len(counts))
	}
	s := &System{
		model:    model,
		diagonal: model.Diagonal,
		space:    model.StateSpace,
		src:      rng.New(defaultSeed),
	}
	if s.space == 0 || s.space > maxDense {
		s.sparse = make(map[uint64]int32, len(keys))
	}
	for i, key := range keys {
		c := counts[i]
		if c <= 0 {
			return nil, fmt.Errorf("species: Init count %d for state %#x", c, key)
		}
		if s.slotOf(key) >= 0 {
			return nil, fmt.Errorf("species: Init repeats state %#x", key)
		}
		if outside(key, s.space) {
			return nil, fmt.Errorf("species: Init state %#x outside declared state space %d", key, model.StateSpace)
		}
		s.n += int(c)
		s.add(key, c)
	}
	if s.n < 2 {
		return nil, fmt.Errorf("species: population size %d < 2", s.n)
	}
	return s, nil
}

// Capable wraps s so that it exposes exactly the optional capabilities its
// model declares (today: the safe set). The engine's type assertions then
// see a safe-set capability only when the model defines one.
func Capable(s *System) sim.Protocol {
	if s.model.SafeSet != nil {
		return safeSetSystem{s}
	}
	return s
}

// safeSetSystem adds the SafeSetter capability for models with a SafeSet
// predicate.
type safeSetSystem struct{ *System }

// InSafeSet reports whether the configuration is in the model's safe set.
func (w safeSetSystem) InSafeSet() bool { return w.System.model.SafeSet(w.System) }

var _ sim.SafeSetter = safeSetSystem{}

// slotOf returns the slot tracking key, or -1.
func (s *System) slotOf(key uint64) int32 {
	if s.sparse == nil {
		if key >= uint64(len(s.dense)) {
			return -1
		}
		return s.dense[key]
	}
	if slot, ok := s.sparse[key]; ok {
		return slot
	}
	return -1
}

// allocSlot starts tracking key (count zero) and returns its slot. A key
// outside the model's declared state space is a broken model contract
// (NewSystem validates Init; React outputs surface here), reported with
// the offending key rather than a raw index panic deep in the sampler.
func (s *System) allocSlot(key uint64) int32 {
	if outside(key, s.space) {
		panic(fmt.Sprintf("species: React produced state key %#x outside the declared state space %d", key, s.space))
	}
	var slot int32
	if len(s.free) > 0 {
		slot = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.keys[slot] = key
		s.counts[slot] = 0
		s.isLeader[slot] = s.model.Leader != nil && s.model.Leader(key)
	} else {
		slot = int32(len(s.keys))
		s.keys = append(s.keys, key)
		s.counts = append(s.counts, 0)
		s.isLeader = append(s.isLeader, s.model.Leader != nil && s.model.Leader(key))
		s.samp.ensure(len(s.keys))
	}
	if s.sparse == nil {
		if key >= uint64(len(s.dense)) {
			s.growDense(key)
		}
		s.dense[key] = slot
	} else {
		s.sparse[key] = slot
	}
	return slot
}

// outside reports whether key lies outside a declared state space (0:
// undeclared, every key allowed).
func outside(key, space uint64) bool { return space > 0 && key >= space }

// growDense extends the dense table to cover key < space: at least double
// its length, capped at the declared space, with the new entries empty.
func (s *System) growDense(key uint64) {
	size := max(2*uint64(len(s.dense)), key+1, 16)
	size = min(size, s.space)
	grown := make([]int32, size)
	copy(grown, s.dense)
	for i := len(s.dense); i < len(grown); i++ {
		grown[i] = -1
	}
	s.dense = grown
}

// add shifts the count of state key by delta, maintaining the occupied and
// leader tallies and the sampler weights, and recycling emptied slots.
func (s *System) add(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	slot := s.slotOf(key)
	if slot < 0 {
		slot = s.allocSlot(key)
	}
	old := s.counts[slot]
	c := old + delta
	if c < 0 {
		panic(fmt.Sprintf("species: state %#x count %d below zero", key, c))
	}
	s.counts[slot] = c
	switch {
	case old == 0 && c > 0:
		s.occupied++
	case old > 0 && c == 0:
		s.occupied--
	}
	if s.isLeader[slot] {
		s.leaders += delta
	}
	if s.diagonal {
		s.samp.set(slot, c*(c-1))
	} else {
		s.samp.set(slot, c)
	}
	if c == 0 {
		if s.sparse == nil {
			s.dense[key] = -1
		} else {
			delete(s.sparse, key)
		}
		s.free = append(s.free, slot)
	}
}

// reap notifies the model when state key's count has returned to zero after
// a fully settled transition or churn event, so interning models
// (CompactModel.Release) can evict the dead table entry and recycle the key.
// Callers must only reap after every add of the enclosing event has been
// applied: a key consumed and re-produced by the same reaction still has
// agents and must stay live.
//
//sspp:hotpath
func (s *System) reap(key uint64) {
	if s.model.Release != nil && s.Count(key) == 0 {
		s.model.Release(key)
	}
}

// N returns the population size.
func (s *System) N() int { return s.n }

// Occupied returns the number of states with a positive count.
func (s *System) Occupied() int { return s.occupied }

// Count returns the number of agents in state key.
func (s *System) Count(key uint64) int64 {
	if slot := s.slotOf(key); slot >= 0 {
		return s.counts[slot]
	}
	return 0
}

// Each iterates the occupied states.
func (s *System) Each(fn func(key uint64, count int64) bool) {
	for slot, c := range s.counts {
		if c > 0 && !fn(s.keys[slot], c) {
			return
		}
	}
}

// Leaders returns the number of agents currently in a leader state.
func (s *System) Leaders() int { return int(s.leaders) }

// Correct reports whether the output is correct: the model's Correct
// predicate when it has one, otherwise exactly one leader.
func (s *System) Correct() bool {
	if s.model.Correct != nil {
		return s.model.Correct(s)
	}
	return s.leaders == 1
}

// CorrectRanking reports whether the rank outputs form a permutation of
// [1, n] (false for models without a rank output). A state maps all its
// agents to one rank, so a permutation requires every occupied state to
// hold exactly one agent with a distinct in-range rank.
func (s *System) CorrectRanking() bool {
	if s.model.Rank == nil {
		return false
	}
	if s.occupied != s.n {
		return false
	}
	seen := make([]bool, s.n+1)
	ok := true
	s.Each(func(key uint64, c int64) bool {
		r := s.model.Rank(key)
		if c != 1 || r < 1 || int(r) > s.n || seen[r] {
			ok = false
			return false
		}
		seen[r] = true
		return true
	})
	return ok
}

// Clock returns the number of interactions executed (including skipped
// silent runs).
func (s *System) Clock() uint64 { return s.clock }

// BindSource sets the randomness stream used for state-pair sampling.
func (s *System) BindSource(src *rng.PRNG) { s.src = src }

// Interact executes one interaction of the uniform population model. The
// agent indices are ignored — agent identities do not exist in species form;
// the state pair is drawn from the bound randomness stream.
func (s *System) Interact(_, _ int) { s.StepMany(1) }

// StepMany executes k interactions of the uniform population model. Under
// the continuous clock (StartContinuous) the same jump chain additionally
// accrues parallel time, and with leaping enabled whole reaction bundles
// are applied per draw instead of sampling interactions one by one.
func (s *System) StepMany(k uint64) {
	if s.continuous {
		s.stepContinuous(k)
		return
	}
	if s.diagonal {
		s.stepDiagonal(k)
	} else {
		s.stepAll(k)
	}
}

// stepDiagonal is the batched fast path for models that react only on the
// diagonal: the number of silent interactions before the next reactive one
// is geometric with success probability Σc(c−1) / n(n−1), so whole silent
// runs are consumed with one draw and only reactive interactions sample a
// state.
//
//sspp:hotpath
func (s *System) stepDiagonal(k uint64) {
	pairs := int64(s.n) * int64(s.n-1)
	fpairs := float64(pairs)
	for k > 0 {
		w2 := s.samp.total // Σ c(c−1): the reactive ordered-pair mass
		if w2 <= 0 {
			s.clock += k // every state is a singleton: silent forever
			return
		}
		var skip uint64
		if w2 < pairs {
			p := float64(w2) / fpairs
			u := 1 - s.src.Float64() // (0, 1]
			f := math.Log(u) / math.Log1p(-p)
			if f >= float64(k) {
				s.clock += k
				return
			}
			skip = uint64(f)
		}
		if skip >= k {
			s.clock += k
			return
		}
		k -= skip + 1
		s.clock += skip + 1
		slot := s.samp.sample(s.src)
		key := s.keys[slot]
		k1, k2 := s.model.React(key, key, s.src)
		if k1 == key && k2 == key {
			continue
		}
		s.add(key, -2)
		s.add(k1, 1)
		s.add(k2, 1)
		s.reap(key)
	}
}

// stepAll draws every interaction individually: initiator state ∝ count,
// responder state ∝ count with one agent at the initiator's state removed.
//
//sspp:hotpath
func (s *System) stepAll(k uint64) {
	for i := uint64(0); i < k; i++ {
		s.clock++
		a := s.samp.sample(s.src)
		b := s.sampleSecond(a)
		ka, kb := s.keys[a], s.keys[b]
		k1, k2 := s.model.React(ka, kb, s.src)
		if k1 == ka && k2 == kb {
			continue
		}
		s.add(ka, -1)
		s.add(kb, -1)
		s.add(k1, 1)
		s.add(k2, 1)
		s.reap(ka)
		if kb != ka {
			s.reap(kb)
		}
	}
}

// sampleSecond draws the responder slot ∝ count, with the initiator's state
// weighted by count−1 (the initiating agent cannot respond to itself).
//
//sspp:hotpath
func (s *System) sampleSecond(a int32) int32 {
	for {
		b := s.samp.sample(s.src)
		if b != a {
			return b
		}
		c := s.counts[a]
		if c >= 2 && int64(s.src.Uint64n(uint64(c))) < c-1 {
			return b
		}
	}
}

// ApplyPair applies the transition to the explicit ordered state pair
// (a, b), mirroring one agent-level interaction between an agent in state a
// and one in state b. It is the hook the mirror-equivalence property tests
// and trace replay drive with a recorded agent-level schedule. Under the
// continuous clock the interaction accrues a fresh holding time, as every
// interaction the system executes does.
func (s *System) ApplyPair(a, b uint64) error {
	need := int64(1)
	if a == b {
		need = 2
	}
	if s.Count(a) < need || s.Count(b) < 1 {
		return fmt.Errorf("species: ApplyPair(%#x, %#x) without enough agents in those states", a, b)
	}
	k1, k2 := s.model.React(a, b, s.src)
	s.clock++
	if s.continuous {
		s.accrue(1)
	}
	if k1 == a && k2 == b {
		return nil
	}
	s.add(a, -1)
	s.add(b, -1)
	s.add(k1, 1)
	s.add(k2, 1)
	s.reap(a)
	if b != a {
		s.reap(b)
	}
	return nil
}

// SelfCheck audits every maintained invariant against a recount: counts sum
// to n and are non-negative, the occupied and leader tallies match, the
// sampler's live weights and totals agree with the counts, and its side
// buffer and Fenwick tree agree with the recounted excesses. Tests call it
// after randomized operation sequences.
func (s *System) SelfCheck() error {
	var sum, leaders, wantTotal int64
	occupied := 0
	for slot, c := range s.counts {
		if c < 0 {
			return fmt.Errorf("species: slot %d count %d < 0", slot, c)
		}
		sum += c
		if c > 0 {
			occupied++
			if s.isLeader[slot] {
				leaders += c
			}
			if got := s.slotOf(s.keys[slot]); got != int32(slot) {
				return fmt.Errorf("species: state %#x lookup %d, want slot %d", s.keys[slot], got, slot)
			}
		}
		w := c
		if s.diagonal {
			w = c * (c - 1)
		}
		if s.samp.live[slot] != w {
			return fmt.Errorf("species: slot %d sampler weight %d, want %d", slot, s.samp.live[slot], w)
		}
		wantTotal += w
	}
	if sum != int64(s.n) {
		return fmt.Errorf("species: counts sum to %d, want n=%d", sum, s.n)
	}
	if occupied != s.occupied {
		return fmt.Errorf("species: occupied tally %d, recount %d", s.occupied, occupied)
	}
	if leaders != s.leaders {
		return fmt.Errorf("species: leader tally %d, recount %d", s.leaders, leaders)
	}
	if s.samp.total != wantTotal {
		return fmt.Errorf("species: sampler total %d, recount %d", s.samp.total, wantTotal)
	}
	return s.samp.audit()
}
