// counters_test.go cross-checks the incremental predicate counters against
// ground-truth recomputation: after arbitrary interleavings of interactions
// and mutators, every O(1) predicate must agree with the O(n) scan it
// replaced.
package core

import (
	"fmt"
	"testing"

	"sspp/internal/detect"
	"sspp/internal/rng"
	"sspp/internal/verify"
)

// scanLeaders is the pre-optimization O(n) Leaders implementation.
func scanLeaders(p *Protocol) int {
	c := 0
	for i := 0; i < p.N(); i++ {
		if p.RankOutput(i) == 1 {
			c++
		}
	}
	return c
}

// scanCorrectRanking is the pre-optimization O(n) CorrectRanking.
func scanCorrectRanking(p *Protocol) bool {
	seen := make([]bool, p.N())
	for i := 0; i < p.N(); i++ {
		r := p.RankOutput(i)
		if r < 1 || int(r) > p.N() || seen[r-1] {
			return false
		}
		seen[r-1] = true
	}
	return true
}

// scanRoles is the pre-optimization O(n) Roles.
func scanRoles(p *Protocol) (resetting, rankingCount, verifying int) {
	for i := 0; i < p.N(); i++ {
		switch p.Agent(i).Role {
		case RoleResetting:
			resetting++
		case RoleRanking:
			rankingCount++
		case RoleVerifying:
			verifying++
		}
	}
	return resetting, rankingCount, verifying
}

// scanAnyTop is the pre-optimization O(n) AnyTop.
func scanAnyTop(p *Protocol) bool {
	for i := 0; i < p.N(); i++ {
		a := p.Agent(i)
		if a.Role == RoleVerifying && a.SV != nil && a.SV.DC != nil && a.SV.DC.Err {
			return true
		}
	}
	return false
}

// messagesCoherent is the reference for the message-coherence clause of
// InSafeSet: per generation, detect.CheckCoherence (the map-based,
// error-reporting check) over that generation's verifiers. It is written
// independently of the shared predicate (correct.go), which it
// cross-checks.
func (p *Protocol) messagesCoherent() bool {
	for gen := uint8(0); gen < verify.Generations; gen++ {
		var ranks []int32
		var states []*detect.State
		for i := 0; i < p.N(); i++ {
			if a := p.Agent(i); a.Role == RoleVerifying && a.SV.Generation%verify.Generations == gen {
				ranks = append(ranks, a.Rank)
				states = append(states, a.SV.DC)
			}
		}
		if detect.CheckCoherence(p.VerifyParams().Detect, ranks, states) != nil {
			return false
		}
	}
	return true
}

// checkCounters asserts that every incremental predicate agrees with its
// ground-truth scan, and that a full recount reproduces the exact counter
// state the incremental bookkeeping arrived at.
func checkCounters(t *testing.T, p *Protocol, ctx string) {
	t.Helper()
	if got, want := p.Leaders(), scanLeaders(p); got != want {
		t.Fatalf("%s: Leaders() = %d, scan = %d", ctx, got, want)
	}
	if got, want := p.CorrectRanking(), scanCorrectRanking(p); got != want {
		t.Fatalf("%s: CorrectRanking() = %v, scan = %v", ctx, got, want)
	}
	gr, gk, gv := p.Roles()
	wr, wk, wv := scanRoles(p)
	if gr != wr || gk != wk || gv != wv {
		t.Fatalf("%s: Roles() = (%d,%d,%d), scan = (%d,%d,%d)", ctx, gr, gk, gv, wr, wk, wv)
	}
	if got, want := p.AnyTop(), scanAnyTop(p); got != want {
		t.Fatalf("%s: AnyTop() = %v, scan = %v", ctx, got, want)
	}
	if got, want := p.AllVerifiers(), wv == p.N(); got != want {
		t.Fatalf("%s: AllVerifiers() = %v, scan = %v", ctx, got, want)
	}
	if idx, ok := p.LeaderIndex(); ok {
		if scanLeaders(p) != 1 || p.RankOutput(idx) != 1 {
			t.Fatalf("%s: LeaderIndex() = (%d, true) but agent outputs rank %d among %d leaders",
				ctx, idx, p.RankOutput(idx), scanLeaders(p))
		}
	} else if scanLeaders(p) == 1 {
		t.Fatalf("%s: LeaderIndex() not ok with exactly one leader", ctx)
	}
	incr := p.snapshotCounters()
	p.recount()
	fresh := p.snapshotCounters()
	if fmt.Sprint(incr) != fmt.Sprint(fresh) {
		t.Fatalf("%s: incremental counters diverged from recount:\n  incr:  %+v\n  fresh: %+v", ctx, incr, fresh)
	}
}

// TestCountersTrackInteractions drives the protocol from a clean start
// through stabilization and checks the counters at every polling step.
func TestCountersTrackInteractions(t *testing.T) {
	const n, r = 24, 6
	p, err := New(n, r, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	checkCounters(t, p, "initial")
	sched := rng.New(17)
	for step := 0; step < 200; step++ {
		for k := 0; k < 500; k++ {
			a, b := sched.Pair(n)
			p.Interact(a, b)
		}
		checkCounters(t, p, fmt.Sprintf("step %d", step))
		if p.InSafeSet() {
			break
		}
	}
}

// TestCountersTrackMutators exercises every Force*/Set* mutator interleaved
// with interactions and random re-mutation, checking the counters throughout.
func TestCountersTrackMutators(t *testing.T) {
	const n, r = 16, 4
	p, err := New(n, r, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	mutate := func(i int) {
		switch src.Intn(7) {
		case 0:
			p.ForceVerifier(i, int32(src.Intn(n+4)-1)) // includes clamped values
		case 1:
			p.ForceRanker(i)
		case 2:
			p.ForceTriggered(i)
		case 3:
			p.ForceDormant(i, int32(src.Intn(10)))
		case 4:
			p.SetGeneration(i, uint8(src.Intn(8)))
		case 5:
			p.SetProbation(i, int32(src.Intn(int(p.Constants().PMax)+2)))
		case 6:
			p.TamperMessages(i)
		}
	}
	for round := 0; round < 60; round++ {
		for k := 0; k < 1+src.Intn(4); k++ {
			mutate(src.Intn(n))
		}
		checkCounters(t, p, fmt.Sprintf("round %d after mutation", round))
		for k := 0; k < 200; k++ {
			a, b := src.Pair(n)
			p.Interact(a, b)
		}
		checkCounters(t, p, fmt.Sprintf("round %d after interactions", round))
	}
}

// TestInSafeSetMatchesReference compares the optimized InSafeSet against a
// from-scratch reference evaluation of the Lemma 6.1 conditions on
// configurations built by the mutators (including safe, generation-skewed,
// and probation-skewed ones).
func TestInSafeSetMatchesReference(t *testing.T) {
	const n, r = 12, 4
	reference := func(p *Protocol) bool {
		if !scanCorrectRanking(p) || scanAnyTop(p) {
			return false
		}
		_, _, v := scanRoles(p)
		if v != p.N() {
			return false
		}
		var gens [verify.Generations]bool
		distinct := 0
		for i := 0; i < p.N(); i++ {
			g := p.Agent(i).SV.Generation % verify.Generations
			if !gens[g] {
				gens[g] = true
				distinct++
			}
		}
		genOK := false
		switch distinct {
		case 1:
			genOK = true
		case 2:
			for g := 0; g < verify.Generations; g++ {
				next := (g + 1) % verify.Generations
				if !gens[g] || !gens[next] {
					continue
				}
				ok := true
				for i := 0; i < p.N(); i++ {
					a := p.Agent(i)
					if int(a.SV.Generation%verify.Generations) == g && a.SV.Probation != 0 {
						ok = false
						break
					}
				}
				if ok {
					genOK = true
					break
				}
			}
		}
		if !genOK {
			return false
		}
		return p.messagesCoherent()
	}

	build := func(setup func(p *Protocol)) *Protocol {
		p, err := New(n, r, WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p.ForceVerifier(i, int32(i+1))
		}
		setup(p)
		return p
	}
	cases := []struct {
		name  string
		setup func(p *Protocol)
	}{
		{"safe", func(p *Protocol) {}},
		{"two generations adjacent off probation", func(p *Protocol) {
			for i := 0; i < n/2; i++ {
				p.SetGeneration(i, 1)
			}
			for i := n / 2; i < n; i++ {
				p.SetProbation(i, 0)
			}
		}},
		{"two generations behind on probation", func(p *Protocol) {
			for i := 0; i < n/2; i++ {
				p.SetGeneration(i, 1)
			}
		}},
		{"three generations", func(p *Protocol) {
			p.SetGeneration(0, 1)
			p.SetGeneration(1, 2)
		}},
		{"non-adjacent generations", func(p *Protocol) {
			p.SetGeneration(0, 3)
		}},
		{"duplicate rank", func(p *Protocol) { p.ForceVerifier(0, 2) }},
		{"ranker present", func(p *Protocol) { p.ForceRanker(0) }},
		{"tampered message", func(p *Protocol) { p.TamperMessages(3) }},
		{"duplicated message", func(p *Protocol) { p.DuplicateMessage(1, 2) }},
	}
	for _, tc := range cases {
		p := build(tc.setup)
		got, want := p.InSafeSet(), reference(p)
		if got != want {
			t.Errorf("%s: InSafeSet() = %v, reference = %v", tc.name, got, want)
		}
	}
}
