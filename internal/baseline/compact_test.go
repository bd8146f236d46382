// compact_test.go property-tests the species forms of the baselines against
// the agent-level implementations they must mirror: the same recorded
// schedule is applied to both representations (the agent pair drives an
// explicit state-pair reaction through species.System.ApplyPair), after
// which the species counts must equal the reference multiset of agent
// states exactly — not statistically — at every checkpoint. The schedule is
// captured with sim.NewRecorder and replayed with Recording.Replay, so a
// divergence is reproducible from the failing seed.

package baseline

import (
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

const (
	mirrorSteps = 100_000
	mirrorEvery = 5_000
)

// mirrorAgainstAgent drives sp with the state pairs the agent-level
// protocol interacts under sched, checking the species multiset against the
// reference map every mirrorEvery interactions. keyOf must report agent i's
// current state key.
func mirrorAgainstAgent(t *testing.T, p sim.Protocol, sp *species.System,
	sched sim.Scheduler, steps int, keyOf func(i int) uint64) {
	t.Helper()
	n := p.N()
	for i := 0; i < steps; i++ {
		a, b := sched.Pair(n)
		if err := sp.ApplyPair(keyOf(a), keyOf(b)); err != nil {
			t.Fatalf("interaction %d (%d, %d): %v", i, a, b, err)
		}
		p.Interact(a, b)
		if (i+1)%mirrorEvery == 0 {
			compareCounts(t, i+1, n, sp, keyOf)
			if err := sp.SelfCheck(); err != nil {
				t.Fatalf("interaction %d: %v", i+1, err)
			}
		}
	}
	compareCounts(t, steps, n, sp, keyOf)
	if err := sp.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// compareCounts requires the species multiset to equal the reference map
// built from the agent-level states: same occupied-state set, same counts,
// counts summing to n with none negative (SelfCheck enforces the latter
// two structurally as well).
func compareCounts(t *testing.T, step, n int, sp *species.System, keyOf func(i int) uint64) {
	t.Helper()
	ref := make(map[uint64]int64, n)
	for i := 0; i < n; i++ {
		ref[keyOf(i)]++
	}
	if sp.Occupied() != len(ref) {
		t.Fatalf("interaction %d: species occupies %d states, reference %d", step, sp.Occupied(), len(ref))
	}
	var sum int64
	sp.Each(func(key uint64, c int64) bool {
		if ref[key] != c {
			t.Fatalf("interaction %d: state %#x count %d, reference %d", step, key, c, ref[key])
		}
		sum += c
		return true
	})
	if sum != int64(n) {
		t.Fatalf("interaction %d: species counts sum to %d, want n=%d", step, sum, n)
	}
}

// TestCIWSpeciesMirrorsAgentLevel: 10⁵ recorded interactions applied to
// both representations leave identical multisets, and replaying the
// recording reproduces the agent-level run exactly.
func TestCIWSpeciesMirrorsAgentLevel(t *testing.T) {
	const n = 256
	agent := NewCIW(n)
	sp, err := species.NewSystem(agent.Compact(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.NewRecorder(rng.New(77))
	mirrorAgainstAgent(t, agent, sp, rec, mirrorSteps, func(i int) uint64 {
		return uint64(agent.RankOutput(i))
	})

	// Replay the captured schedule into a fresh agent instance: the exact
	// final configuration must come back (the reproducibility contract the
	// mirror test itself rests on).
	replayed := NewCIW(n)
	sim.Steps(replayed, rec.Recording().Replay(), mirrorSteps)
	for i := 0; i < n; i++ {
		if replayed.RankOutput(i) != agent.RankOutput(i) {
			t.Fatalf("replay diverged at agent %d: rank %d vs %d", i, replayed.RankOutput(i), agent.RankOutput(i))
		}
	}
}

// TestLooseLESpeciesMirrorsAgentLevel: same mirror for the timeout
// dynamics, whose state space (leader bit × timer) stays tiny.
func TestLooseLESpeciesMirrorsAgentLevel(t *testing.T) {
	const n = 256
	agent := NewLooseLE(n, 24)
	sp, err := species.NewSystem(agent.Compact(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.NewRecorder(rng.New(99))
	keyOf := agent.StateKey
	mirrorAgainstAgent(t, agent, sp, rec, mirrorSteps, keyOf)
	if max := int(2 * (agent.Tau() + 1)); sp.Occupied() > max {
		t.Fatalf("LooseLE occupies %d states, state space bound is %d", sp.Occupied(), max)
	}

	replayed := NewLooseLE(n, 24)
	sim.Steps(replayed, rec.Recording().Replay(), mirrorSteps)
	for i := 0; i < n; i++ {
		if replayed.StateKey(i) != agent.StateKey(i) {
			t.Fatalf("replay diverged at agent %d", i)
		}
	}
}

// TestNameRankSpeciesInvariants: NameRank's interned states cannot be
// mirrored key-by-key from outside the model, so the species run is checked
// structurally: counts always sum to n, the occupied-state count never
// exceeds n, committed ranks only ever come from [1, n], and a run that
// reports correct output reports a committed permutation.
func TestNameRankSpeciesInvariants(t *testing.T) {
	const n = 128
	names := rng.New(5)
	agent := NewNameRank(n, func(k int) int { return names.Intn(k) })
	sp, err := species.NewSystem(agent.Compact(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sp.BindSource(rng.New(6))
	for round := 0; round < 40; round++ {
		sp.StepMany(500)
		if err := sp.SelfCheck(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sp.Occupied() > n {
			t.Fatalf("round %d: %d occupied states for %d agents", round, sp.Occupied(), n)
		}
	}
	if !sp.Correct() {
		t.Fatalf("NameRank species did not commit a permutation within %d interactions", 40*500)
	}
	if !sp.CorrectRanking() {
		t.Fatal("correct output without a committed permutation")
	}
}

// TestCompactableCapability pins which baselines advertise a species form.
func TestCompactableCapability(t *testing.T) {
	if _, ok := interface{}((*CIW)(nil)).(sim.Compactable); !ok {
		t.Error("CIW lost the compactable capability")
	}
	if _, ok := interface{}((*LooseLE)(nil)).(sim.Compactable); !ok {
		t.Error("LooseLE lost the compactable capability")
	}
	if _, ok := interface{}((*NameRank)(nil)).(sim.Compactable); !ok {
		t.Error("NameRank lost the compactable capability")
	}
}

// TestNameRankSafeSetPollAllocs: polling a committed NameRank's species safe
// set allocates nothing; the predicate walks the occupied states with a seen
// buffer and a visitor the model owns.
func TestNameRankSafeSetPollAllocs(t *testing.T) {
	const n = 64
	names := rng.New(5)
	agent := NewNameRank(n, func(k int) int { return names.Intn(k) })
	sp, err := species.NewSystem(agent.Compact(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sp.BindSource(rng.New(6))
	for round := 0; round < 100 && !sp.Correct(); round++ {
		sp.StepMany(500)
	}
	p := species.Capable(sp).(sim.SafeSetter)
	if !p.InSafeSet() {
		t.Fatal("committed NameRank outside the safe set")
	}
	if a := testing.AllocsPerRun(100, func() {
		if !p.InSafeSet() {
			t.Fatal("committed NameRank left the safe set")
		}
	}); a != 0 {
		t.Fatalf("InSafeSet on a committed NameRank: %v allocs per poll, want 0", a)
	}
}
