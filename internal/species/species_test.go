package species

import (
	"math"
	"strings"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

// toyDiagonal is a CIW-shaped diagonal model over states [1, k]: equal
// states (s, s) react to (s, s mod k + 1), everything else is silent.
func toyDiagonal(k int, n int64) sim.CompactModel {
	return sim.CompactModel{
		StateSpace: uint64(k) + 1,
		Diagonal:   true,
		Init: func() ([]uint64, []int64) {
			return []uint64{1}, []int64{n}
		},
		React: func(a, b uint64, _ *rng.PRNG) (uint64, uint64) {
			if a == b {
				return a, a%uint64(k) + 1
			}
			return a, b
		},
		Leader: func(s uint64) bool { return s == 1 },
		Rank:   func(s uint64) int32 { return int32(s) },
	}
}

func TestNewSystemValidation(t *testing.T) {
	valid := toyDiagonal(8, 16)
	if _, err := NewSystem(valid, 1); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(m *sim.CompactModel)
	}{
		{"missing Init", func(m *sim.CompactModel) { m.Init = nil }},
		{"missing React", func(m *sim.CompactModel) { m.React = nil }},
		{"missing output", func(m *sim.CompactModel) { m.Leader = nil; m.Correct = nil }},
		{"duplicate keys", func(m *sim.CompactModel) {
			m.Init = func() ([]uint64, []int64) { return []uint64{1, 1}, []int64{2, 2} }
		}},
		{"non-positive count", func(m *sim.CompactModel) {
			m.Init = func() ([]uint64, []int64) { return []uint64{1, 2}, []int64{4, 0} }
		}},
		{"length mismatch", func(m *sim.CompactModel) {
			m.Init = func() ([]uint64, []int64) { return []uint64{1, 2}, []int64{4} }
		}},
		{"population too small", func(m *sim.CompactModel) {
			m.Init = func() ([]uint64, []int64) { return []uint64{1}, []int64{1} }
		}},
		{"key outside state space", func(m *sim.CompactModel) {
			m.Init = func() ([]uint64, []int64) { return []uint64{99}, []int64{4} }
		}},
	}
	for _, tc := range cases {
		m := toyDiagonal(8, 16)
		tc.mutate(&m)
		if _, err := NewSystem(m, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSamplerDistribution drives the alias-table sampler through a fixed
// weight profile and through incremental updates, checking the empirical
// frequencies against the weights.
func TestSamplerDistribution(t *testing.T) {
	src := rng.New(11)
	checkFreqs := func(sa *sampler, weights []int64) {
		t.Helper()
		var total int64
		for _, w := range weights {
			total += w
		}
		const draws = 200_000
		counts := make([]int64, len(weights))
		for i := 0; i < draws; i++ {
			counts[sa.sample(src)]++
		}
		for slot, w := range weights {
			want := float64(w) / float64(total)
			got := float64(counts[slot]) / draws
			// Three-sigma binomial tolerance plus a small absolute floor.
			tol := 3*math.Sqrt(want*(1-want)/draws) + 1e-4
			if math.Abs(got-want) > tol {
				t.Fatalf("slot %d: frequency %.5f, want %.5f ±%.5f (weights %v)", slot, got, want, tol, weights)
			}
		}
	}

	var sa sampler
	weights := []int64{1, 5, 10, 0, 84}
	sa.ensure(len(weights))
	for i, w := range weights {
		sa.set(int32(i), w)
	}
	checkFreqs(&sa, weights)

	// Incremental updates: grow a zero slot, shrink the heavy one, zero one
	// out, and append a new slot — all without an explicit rebuild.
	updates := []struct {
		slot int32
		w    int64
	}{{3, 40}, {4, 2}, {1, 0}, {0, 63}}
	for _, u := range updates {
		weights[u.slot] = u.w
		sa.set(u.slot, u.w)
	}
	sa.ensure(6)
	sa.set(5, 17)
	weights = append(weights, 17)
	checkFreqs(&sa, weights)

	// A long random walk of updates keeps totals exact.
	for i := 0; i < 20_000; i++ {
		slot := int32(src.Intn(len(weights)))
		w := int64(src.Intn(100))
		weights[slot] = w
		sa.set(slot, w)
	}
	var want int64
	for _, w := range weights {
		want += w
	}
	if sa.total != want {
		t.Fatalf("sampler total %d after random walk, want %d", sa.total, want)
	}
	checkFreqs(&sa, weights)
}

// TestDiagonalSkipConsumesExactClock: the geometric fast path must account
// for every skipped interaction.
func TestDiagonalSkipConsumesExactClock(t *testing.T) {
	s, err := NewSystem(toyDiagonal(64, 1024), 3)
	if err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for _, k := range []uint64{1, 7, 1000, 123_456} {
		s.StepMany(k)
		steps += k
		if s.Clock() != steps {
			t.Fatalf("clock %d after %d requested interactions", s.Clock(), steps)
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestAllSingletonsAreSilentForever: a diagonal model with every state a
// singleton has zero reactive mass, so even an astronomical step count
// returns immediately.
func TestAllSingletonsAreSilentForever(t *testing.T) {
	m := toyDiagonal(8, 2)
	m.Init = func() ([]uint64, []int64) { return []uint64{1, 2}, []int64{1, 1} }
	s, err := NewSystem(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.StepMany(1 << 60)
	if s.Clock() != 1<<60 {
		t.Fatalf("clock %d", s.Clock())
	}
	if s.Count(1) != 1 || s.Count(2) != 1 || s.Occupied() != 2 {
		t.Fatal("silent configuration changed")
	}
}

// TestInteractIgnoresIndices: Interact is one sampled interaction no matter
// which agent pair the caller names.
func TestInteractIgnoresIndices(t *testing.T) {
	s, err := NewSystem(toyDiagonal(8, 64), 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Interact(0, 1)
	s.Interact(63, 12)
	if s.Clock() != 2 {
		t.Fatalf("clock %d after two Interacts", s.Clock())
	}
}

// TestApplyPair exercises the test hook: explicit state-pair reactions with
// exact bookkeeping, and errors for unoccupied states.
func TestApplyPair(t *testing.T) {
	s, err := NewSystem(toyDiagonal(8, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyPair(1, 1); err != nil { // (1,1) -> (1,2)
		t.Fatal(err)
	}
	if s.Count(1) != 9 || s.Count(2) != 1 {
		t.Fatalf("counts after (1,1): %d, %d", s.Count(1), s.Count(2))
	}
	if err := s.ApplyPair(2, 2); err == nil {
		t.Fatal("ApplyPair on a singleton diagonal accepted")
	}
	if err := s.ApplyPair(5, 1); err == nil {
		t.Fatal("ApplyPair with an unoccupied initiator accepted")
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCorrectRankingAndLeaders runs the toy ranking to its permutation and
// checks the maintained predicates along the way.
func TestCorrectRankingAndLeaders(t *testing.T) {
	const n = 64
	s, err := NewSystem(toyDiagonal(n, n), 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.CorrectRanking() {
		t.Fatal("all-rank-1 start reported as a permutation")
	}
	if s.Leaders() != n {
		t.Fatalf("leaders %d at start", s.Leaders())
	}
	for i := 0; i < 10_000 && !s.CorrectRanking(); i++ {
		s.StepMany(uint64(n))
	}
	if !s.CorrectRanking() {
		t.Fatal("toy ranking did not reach a permutation")
	}
	if s.Leaders() != 1 || !s.Correct() {
		t.Fatalf("permutation with %d leaders", s.Leaders())
	}
	if s.Occupied() != n {
		t.Fatalf("permutation with %d occupied states", s.Occupied())
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseLookup runs a model without a declared state space (hash-map
// lookup) and checks the same bookkeeping holds.
func TestSparseLookup(t *testing.T) {
	m := toyDiagonal(32, 256)
	m.StateSpace = 0 // force the sparse path
	s, err := NewSystem(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.StepMany(100_000)
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	s.Each(func(_ uint64, c int64) bool { sum += c; return true })
	if sum != 256 {
		t.Fatalf("counts sum %d, want 256", sum)
	}
}

// TestCapableGatesSafeSet: the safe-set capability must appear exactly when
// the model declares a SafeSet predicate.
func TestCapableGatesSafeSet(t *testing.T) {
	plain, err := NewSystem(toyDiagonal(8, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Capable(plain).(sim.SafeSetter); ok {
		t.Fatal("model without SafeSet exposed the safe-set capability")
	}
	m := toyDiagonal(8, 16)
	m.SafeSet = func(v sim.CountView) bool { return v.Occupied() == 8 }
	withSafe, err := NewSystem(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Capable(withSafe)
	ss, ok := p.(sim.SafeSetter)
	if !ok {
		t.Fatal("model with SafeSet lost the safe-set capability")
	}
	if ss.InSafeSet() {
		t.Fatal("all-rank-1 start reported in safe set")
	}
	if _, ok := p.(sim.CountBased); !ok {
		t.Fatal("wrapper lost the count-based capability")
	}
}

// fixedSched is a deliberately non-uniform scheduler for contract tests.
type fixedSched struct{}

func (fixedSched) Pair(n int) (int, int) { return 0, 1 % n }

// TestInternalRunnerDrivesCountBased: sim.Steps must honor the supplied
// stream (distinct seeds → distinct trajectories, bulk-stepped), and must
// reject non-uniform schedulers — through sim.CountSource, before any
// interaction — instead of silently substituting uniform dynamics from a
// stale stream.
func TestInternalRunnerDrivesCountBased(t *testing.T) {
	// run steps in chunks of n/4 and returns the first chunk boundary at
	// which the toy ranking is correct.
	run := func(seed uint64) uint64 {
		s, err := NewSystem(toyDiagonal(64, 64), 1)
		if err != nil {
			t.Fatal(err)
		}
		sched := rng.New(seed)
		for s.Clock() < 50_000 && !s.Correct() {
			sim.Steps(s, sched, 16)
		}
		if !s.Correct() {
			t.Fatalf("seed %d: toy ranking did not stabilize through sim.Steps", seed)
		}
		return s.Clock()
	}
	a, b, a2 := run(3), run(4), run(3)
	if a != a2 {
		t.Fatalf("same seed diverged: %d vs %d", a, a2)
	}
	if a == b {
		t.Fatalf("distinct seeds stabilized at the same interaction %d — the scheduler stream is being ignored", a)
	}

	s, err := NewSystem(toyDiagonal(8, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := sim.CountSource(s, fixedSched{})
	if cerr == nil {
		t.Fatal("sim.CountSource accepted a non-uniform scheduler for a count-based protocol")
	}
	defer func() {
		if e, ok := recover().(error); !ok || e.Error() != cerr.Error() {
			t.Fatalf("sim.Steps panicked with %v, want the CountSource error %v", e, cerr)
		}
		if s.Clock() != 0 {
			t.Fatalf("%d interactions executed before the scheduler rejection", s.Clock())
		}
	}()
	sim.Steps(s, fixedSched{}, 100)
}

// TestReactOutsideStateSpacePanics: a model whose React emits a key
// outside its declared state space is a broken contract, reported with the
// offending key instead of a raw index panic inside the sampler.
func TestReactOutsideStateSpacePanics(t *testing.T) {
	m := sim.CompactModel{
		StateSpace: 2,
		Init:       func() ([]uint64, []int64) { return []uint64{0, 1}, []int64{1, 1} },
		React:      func(a, b uint64, _ *rng.PRNG) (uint64, uint64) { return 5, b },
		Leader:     func(s uint64) bool { return s == 1 },
	}
	s, err := NewSystem(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-space React key did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "state space") || !strings.Contains(msg, "0x5 ") {
			t.Fatalf("panic %v does not name the contract and the key", r)
		}
	}()
	s.StepMany(10)
}

// TestDenseTableGrowsOnDemand: a declared state space costs only the keys
// in use — the dense table starts small, doubles as larger keys arrive,
// never outgrows the declared space, and keeps every lookup exact.
func TestDenseTableGrowsOnDemand(t *testing.T) {
	const space = 1 << 20
	s, err := NewSystem(toyDiagonal(space-1, 4096), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.dense) > 16 || s.sparse != nil {
		t.Fatalf("fresh system holds a dense table of %d entries (sparse %v)", len(s.dense), s.sparse != nil)
	}
	var top uint64
	for s.Clock() < 1_000_000 {
		s.StepMany(10_000)
		s.Each(func(key uint64, _ int64) bool { top = max(top, key); return true })
		if uint64(len(s.dense)) <= top || len(s.dense) > max(16, 2*int(top)+2) {
			t.Fatalf("dense table of %d entries for keys up to %d", len(s.dense), top)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatal(err)
		}
	}
	m := toyDiagonal(20, 64)
	m.StateSpace = 20 // React's rank 20 lies outside
	s, err = NewSystem(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		s.StepMany(100_000)
		return nil
	}()
	if msg, ok := got.(string); !ok || !strings.Contains(msg, "0x14 outside the declared state space 20") {
		t.Fatalf("panic %v, want the out-of-space key 0x14 named", got)
	}
}

// TestReactAllMatchesPairLaw: in the non-diagonal path, the responder draw
// must exclude the initiating agent — with two states of one agent each,
// every interaction pairs the two distinct states, never a state with
// itself.
func TestReactAllMatchesPairLaw(t *testing.T) {
	sawPair := 0
	m := sim.CompactModel{
		Init: func() ([]uint64, []int64) { return []uint64{0, 1}, []int64{1, 1} },
		React: func(a, b uint64, _ *rng.PRNG) (uint64, uint64) {
			if a == b {
				panic("species: paired an agent with itself")
			}
			sawPair++
			return a, b
		},
		Leader: func(s uint64) bool { return s == 0 },
	}
	s, err := NewSystem(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.StepMany(10_000)
	if sawPair != 10_000 {
		t.Fatalf("React fired %d times, want 10000", sawPair)
	}
}
