// stabilize_test.go runs ElectLeader_r to the safe set of Lemma 6.1 from
// clean, triggered and corrupted starts. The runs go through the public
// engine, System.Run over sspp.NewCustom, so this is an external test
// package (sspp imports core).
package core_test

import (
	"math"
	"testing"

	"sspp"
	"sspp/internal/core"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// stabilizationBound returns a generous interaction budget for (n, r):
// a large constant times the Theorem 1.1 bound (n²/r)·log n.
func stabilizationBound(n, r int) uint64 {
	return uint64(600 * float64(n*n) / float64(r) * math.Log(float64(n)+1))
}

func mustNew(t *testing.T, n, r int, opts ...core.Option) *core.Protocol {
	t.Helper()
	p, err := core.New(n, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run runs p on System.Run with the given options.
func run(t *testing.T, p *core.Protocol, opts ...sspp.RunOption) sspp.Result {
	t.Helper()
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(opts...)
}

// runToSafeSet runs p to the safe set under the uniform scheduler seeded
// with seed, within max interactions.
func runToSafeSet(t *testing.T, p *core.Protocol, seed, max uint64) sspp.Result {
	t.Helper()
	return run(t, p, sspp.SchedulerSeed(seed), sspp.MaxInteractions(max))
}

// TestStabilizeFromCleanStart: from the all-fresh-rankers configuration the
// protocol reaches a safe configuration with a correct ranking (the Lemma
// 6.2 path), across (n, r) and seeds.
func TestStabilizeFromCleanStart(t *testing.T) {
	cases := []struct{ n, r int }{{16, 1}, {16, 4}, {16, 8}, {32, 4}, {32, 16}}
	for _, c := range cases {
		for seed := uint64(0); seed < 2; seed++ {
			ev := sim.NewEvents()
			p := mustNew(t, c.n, c.r, core.WithSeed(seed), core.WithEvents(ev))
			res := runToSafeSet(t, p, seed+500, stabilizationBound(c.n, c.r))
			if !res.Stabilized {
				resetting, rankers, verifiers := p.Roles()
				t.Fatalf("n=%d r=%d seed=%d: no safe set after %d interactions "+
					"(roles %d/%d/%d, leaders %d, events %s)",
					c.n, c.r, seed, res.Interactions, resetting, rankers, verifiers, p.Leaders(), ev)
			}
			if !p.CorrectRanking() || !p.Correct() {
				t.Fatalf("n=%d r=%d seed=%d: safe set without correct output", c.n, c.r, seed)
			}
		}
	}
}

// TestStabilizeFromTriggered is Lemma 6.2 proper: from a fully triggered
// configuration, the protocol hard-resets through dormancy and then ranks
// correctly.
func TestStabilizeFromTriggered(t *testing.T) {
	const n, r = 16, 4
	for seed := uint64(0); seed < 3; seed++ {
		p := mustNew(t, n, r, core.WithSeed(seed))
		for i := 0; i < n; i++ {
			p.ForceTriggered(i)
		}
		res := runToSafeSet(t, p, seed+900, stabilizationBound(n, r))
		if !res.Stabilized {
			t.Fatalf("seed %d: no safe set from triggered config after %d interactions", seed, res.Interactions)
		}
	}
}

// TestClosure: once in the safe set, the configuration stays correct
// (Lemma 6.1) — no resets, no rank changes, over a long follow-up run.
func TestClosure(t *testing.T) {
	const n, r = 16, 4
	ev := sim.NewEvents()
	p := mustNew(t, n, r, core.WithSeed(11), core.WithEvents(ev))
	if res := runToSafeSet(t, p, 42, stabilizationBound(n, r)); !res.Stabilized {
		t.Fatal("setup failed to reach the safe set")
	}
	ranksBefore := make([]int32, n)
	for i := 0; i < n; i++ {
		ranksBefore[i] = p.RankOutput(i)
	}
	hardBefore := ev.Count(sim.EvHardReset)
	sim.Steps(p, rng.New(43), 400_000)
	if !p.Correct() || !p.CorrectRanking() {
		t.Fatal("closure violated: configuration left correctness")
	}
	for i := 0; i < n; i++ {
		if p.RankOutput(i) != ranksBefore[i] {
			t.Fatalf("agent %d changed rank %d -> %d after stabilization",
				i, ranksBefore[i], p.RankOutput(i))
		}
	}
	if ev.Count(sim.EvHardReset) != hardBefore {
		t.Fatalf("hard reset after stabilization (%d -> %d)", hardBefore, ev.Count(sim.EvHardReset))
	}
}

// TestRecoveryFromDuplicateRanks is the heart of self-stabilization
// (Lemma F.6 path): verifiers with duplicate ranks and expired probation
// timers must detect, escalate to a hard reset, and re-stabilize.
func TestRecoveryFromDuplicateRanks(t *testing.T) {
	const n, r = 16, 4
	for seed := uint64(0); seed < 3; seed++ {
		ev := sim.NewEvents()
		p := mustNew(t, n, r, core.WithSeed(seed), core.WithEvents(ev))
		for i := 0; i < n; i++ {
			rank := int32(i + 1)
			if i == 1 {
				rank = 1 // duplicate leader rank
			}
			p.ForceVerifier(i, rank)
			p.SetProbation(i, 0)
		}
		if p.Correct() {
			t.Fatal("setup: duplicate rank 1 should mean two leaders")
		}
		res := runToSafeSet(t, p, seed+33, stabilizationBound(n, r))
		if !res.Stabilized {
			t.Fatalf("seed %d: no recovery from duplicate ranks after %d interactions (events %s)",
				seed, res.Interactions, ev)
		}
		if ev.Count(sim.EvHardReset) == 0 {
			t.Fatalf("seed %d: recovery without a hard reset is impossible here", seed)
		}
	}
}

// TestRecoveryFromMixedGenerations exercises the ℰ₂→ℰ₃ ladder step
// (Lemma F.4): verifiers with scattered generations either equalize or
// hard-reset, and then stabilize.
func TestRecoveryFromMixedGenerations(t *testing.T) {
	const n, r = 16, 4
	p := mustNew(t, n, r, core.WithSeed(5))
	for i := 0; i < n; i++ {
		p.ForceVerifier(i, int32(i+1))
		p.SetGeneration(i, uint8(i%4)) // generations 0..3: gaps force resets
		p.SetProbation(i, 0)
	}
	res := runToSafeSet(t, p, 8, stabilizationBound(n, r))
	if !res.Stabilized {
		t.Fatalf("no recovery from mixed generations after %d interactions (gens %v)",
			res.Interactions, p.Generations())
	}
}

// TestRecoveryFromGarbageRanks: all verifiers share rank 1 (no-leader dual:
// n leaders). Detection within groups must reset and recover.
func TestRecoveryFromGarbageRanks(t *testing.T) {
	const n, r = 16, 4
	p := mustNew(t, n, r, core.WithSeed(6))
	for i := 0; i < n; i++ {
		p.ForceVerifier(i, 1)
		p.SetProbation(i, 0)
	}
	res := runToSafeSet(t, p, 9, stabilizationBound(n, r))
	if !res.Stabilized {
		t.Fatalf("no recovery from all-rank-1 after %d interactions", res.Interactions)
	}
}

// TestSyntheticCoinMode: the derandomized protocol (Appendix B) stabilizes
// too.
func TestSyntheticCoinMode(t *testing.T) {
	const n, r = 16, 4
	p := mustNew(t, n, r, core.WithSeed(7), core.WithSyntheticCoins())
	res := runToSafeSet(t, p, 10, stabilizationBound(n, r))
	if !res.Stabilized {
		t.Fatalf("synthetic-coin mode failed to stabilize after %d interactions", res.Interactions)
	}
}
