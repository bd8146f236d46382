package core

import (
	"math"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

func mustNew(t *testing.T, n, r int, opts ...Option) *Protocol {
	t.Helper()
	p, err := New(n, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(32, 20); err == nil {
		t.Fatal("r > n/2 must fail")
	}
	if _, err := New(1, 1); err == nil {
		t.Fatal("n < 2 must fail")
	}
	bad := DefaultConstants(32, 4)
	bad.CountdownMax = 0
	if _, err := New(32, 4, WithConstants(bad)); err == nil {
		t.Fatal("zero countdown must fail")
	}
	mismatched := DefaultConstants(16, 4)
	if _, err := New(32, 4, WithConstants(mismatched)); err == nil {
		t.Fatal("constants for wrong n must fail")
	}
}

func TestInitialConfiguration(t *testing.T) {
	p := mustNew(t, 16, 4)
	resetting, rankers, verifiers := p.Roles()
	if resetting != 0 || verifiers != 0 || rankers != 16 {
		t.Fatalf("roles = %d/%d/%d, want all rankers", resetting, rankers, verifiers)
	}
	// All rankers believe rank 1, so all are leaders: incorrect output.
	if p.Correct() {
		t.Fatal("fresh configuration cannot be correct")
	}
	if p.Leaders() != 16 {
		t.Fatalf("Leaders = %d, want 16 (everyone believes rank 1)", p.Leaders())
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{
		RoleRanking:   "ranking",
		RoleResetting: "resetting",
		RoleVerifying: "verifying",
		Role(9):       "role(9)",
	} {
		if r.String() != want {
			t.Errorf("Role(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}

// TestSoftResetPreservesRanking is the §3.2 guarantee (experiment T9): a
// correct ranking with corrupted circulating messages and expired probation
// must repair itself via soft resets only, never changing any rank.
func TestSoftResetPreservesRanking(t *testing.T) {
	const n, r = 12, 6
	for seed := uint64(0); seed < 3; seed++ {
		ev := sim.NewEvents()
		p := mustNew(t, n, r, WithSeed(seed), WithEvents(ev))
		for i := 0; i < n; i++ {
			p.ForceVerifier(i, int32(i+1))
			p.SetProbation(i, 0)
		}
		if !p.TamperMessages(0) || !p.TamperMessages(5) {
			t.Fatal("tamper failed")
		}
		ranksBefore := make([]int32, n)
		for i := 0; i < n; i++ {
			ranksBefore[i] = p.RankOutput(i)
		}
		sim.Steps(p, rng.New(seed+77), 3_000_000)
		if got := ev.Count(sim.EvHardReset); got != 0 {
			t.Fatalf("seed %d: %d hard resets on a correct ranking", seed, got)
		}
		if ev.Count(sim.EvSoftReset) == 0 {
			t.Fatalf("seed %d: corruption never soft-reset", seed)
		}
		for i := 0; i < n; i++ {
			if p.RankOutput(i) != ranksBefore[i] {
				t.Fatalf("seed %d: rank of agent %d changed", seed, i)
			}
		}
		if !p.InSafeSet() {
			t.Fatalf("seed %d: not back in safe set (gens %v, top %v)",
				seed, p.Generations(), p.AnyTop())
		}
	}
}

func TestAccessors(t *testing.T) {
	p := mustNew(t, 8, 2, WithSeed(1))
	if p.N() != 8 || p.R() != 2 {
		t.Fatal("N/R accessors broken")
	}
	if p.Agent(0) == nil {
		t.Fatal("Agent accessor broken")
	}
	if p.Constants().CountdownMax <= 0 {
		t.Fatal("Constants accessor broken")
	}
	if p.VerifyParams().PMax <= 0 {
		t.Fatal("VerifyParams accessor broken")
	}
	if p.Events() != nil {
		t.Fatal("events should be nil unless attached")
	}
	if got := len(p.Generations()); got != 0 {
		t.Fatalf("no verifiers yet: generations = %d", got)
	}
}

func TestMutatorsClamp(t *testing.T) {
	p := mustNew(t, 8, 2)
	p.ForceVerifier(0, -5)
	if p.Agent(0).Rank != 1 {
		t.Fatal("rank must clamp to 1")
	}
	p.ForceVerifier(0, 100)
	if p.Agent(0).Rank != 8 {
		t.Fatal("rank must clamp to n")
	}
	p.SetProbation(0, -1)
	if p.Agent(0).SV.Probation != 0 {
		t.Fatal("probation must clamp to 0")
	}
	p.SetProbation(0, 1<<30)
	if p.Agent(0).SV.Probation != p.Constants().PMax {
		t.Fatal("probation must clamp to PMax")
	}
	p.ForceDormant(1, -3)
	if p.Agent(1).Reset.Delay != 1 {
		t.Fatal("dormant delay must clamp to 1")
	}
	p.SetCountdown(1, 5) // agent 1 is a resetter: no-op
	if p.Agent(1).Role != RoleResetting {
		t.Fatal("SetCountdown must not change roles")
	}
	// Mutators on wrong roles are no-ops.
	p.SetGeneration(1, 3)
	if p.TamperMessages(1) {
		t.Fatal("tampering a non-verifier must fail")
	}
}

func TestInSafeSetConditions(t *testing.T) {
	p := mustNew(t, 8, 2)
	if p.InSafeSet() {
		t.Fatal("rankers are never safe")
	}
	for i := 0; i < 8; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	if !p.InSafeSet() {
		t.Fatal("correct single-generation verifiers must be safe")
	}
	// Two adjacent generations: safe only if the older one is off probation.
	p.SetGeneration(0, 1)
	if p.InSafeSet() {
		t.Fatal("gen-0 agents on probation: not safe")
	}
	for i := 1; i < 8; i++ {
		p.SetProbation(i, 0)
	}
	if !p.InSafeSet() {
		t.Fatal("adjacent generations with behind-off-probation must be safe")
	}
	// A generation gap of 2 is never safe.
	p.SetGeneration(0, 2)
	if p.InSafeSet() {
		t.Fatal("generation gap 2: not safe")
	}
	// Duplicate rank is never safe.
	p.SetGeneration(0, 0)
	p.ForceVerifier(0, 2)
	if p.InSafeSet() {
		t.Fatal("duplicate ranks: not safe")
	}
}

func TestStateSpaceFormulas(t *testing.T) {
	// Monotonicity in r at fixed n (more deputies, more states).
	if ElectLeaderBits(256, 64) <= ElectLeaderBits(256, 4) {
		t.Fatal("state bits must grow with r")
	}
	// The r = Θ(n) regime must beat Burman et al.'s super-polynomial bits.
	if ElectLeaderBits(1024, 512) >= BurmanBits(1024) {
		t.Fatal("trade-off should beat the Burman et al. bound shape")
	}
	// Sub-exponential regime: with r = log² n the bit complexity grows
	// polylogarithmically in n, so doubling n must grow the bits by far
	// less than 2× (whereas exponential-state protocols double exactly).
	bitsAt := func(n float64) float64 {
		return ElectLeaderBits(n, math.Pow(math.Log2(n), 2))
	}
	if ratio := bitsAt(2048) / bitsAt(1024); ratio >= 1.8 {
		t.Fatalf("r=log²n bit growth ratio = %.3f, want sub-exponential (< 1.8)", ratio)
	}
	if ratio := BurmanSublinearBits(2048, 1) / BurmanSublinearBits(1024, 1); ratio < 1.99 {
		t.Fatalf("H=1 baseline should double: ratio %.3f", ratio)
	}
	if CaiIzumiWadaBits(1024) != 10 {
		t.Fatalf("CIW bits = %v, want 10", CaiIzumiWadaBits(1024))
	}
	if GasieniecBits(1024) <= 10 || GasieniecBits(1024) > 11 {
		t.Fatalf("Gasieniec bits = %v, want slightly above 10", GasieniecBits(1024))
	}
	if BurmanSublinearBits(1024, 1) <= 1024 {
		t.Fatal("Sublinear-Time-SSR with H=1 needs 2^Θ(n) states")
	}
	if DetectBits(0) != 0 {
		t.Fatal("DetectBits(0) must be 0")
	}
	if lg(0.5) != 0 {
		t.Fatal("lg must clamp below 1")
	}
	if !math.IsInf(log2SumExp2(), -1) {
		t.Fatal("empty log2SumExp2 must be -inf")
	}
}
