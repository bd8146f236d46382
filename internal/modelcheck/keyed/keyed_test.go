package keyed

import (
	"testing"

	"sspp/internal/baseline"
	"sspp/internal/modelcheck"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// binomial returns C(a, b).
func binomial(a, b int) int {
	c := 1
	for i := 1; i <= b; i++ {
		c = c * (a - b + i) / i
	}
	return c
}

// TestCheckCIW fully verifies CIW's own rule for n = 2..10: closure (the
// one permutation multiset is silent) and probabilistic stabilization
// (every configuration reaches it). Each count is logged.
func TestCheckCIW(t *testing.T) {
	for n := 2; n <= 10; n++ {
		rep, err := CheckCIW(n)
		if err != nil {
			t.Fatal(err)
		}
		want := modelcheck.CountReport{Configurations: binomial(2*n-1, n), Silent: 1, Target: 1, TargetSilent: true}
		if rep != want {
			t.Fatalf("n=%d: %+v, want %+v", n, rep, want)
		}
		t.Logf("n=%d: %d configurations fully verified", n, rep.Configurations)
	}
}

func TestCheckCIWValidation(t *testing.T) {
	for _, n := range []int{1, 13} {
		if _, err := CheckCIW(n); err == nil {
			t.Fatalf("n=%d must fail", n)
		}
	}
}

// ciwSpec is CIW's transition written out apart from internal/baseline, as
// the agent-vector analysis had it: when two agents hold the same rank, the
// responder moves to the next rank, from n back to 1.
func ciwSpec(a, b uint64, n int) (uint64, uint64) {
	if a != b {
		return a, b
	}
	if b == uint64(n) {
		return a, 1
	}
	return a, b + 1
}

// TestCIWSpecAgreement keeps the checked rule tied to an independent
// spec: for n ≤ 10, baseline's React equals ciwSpec on every key pair in
// [1, n]², and the explorer run on the spec, with its own permutation
// test, gives CheckCIW's report.
func TestCIWSpecAgreement(t *testing.T) {
	for n := 2; n <= 10; n++ {
		m := baseline.NewCIW(n).Compact()
		for a := uint64(1); a <= uint64(n); a++ {
			for b := uint64(1); b <= uint64(n); b++ {
				x, y := m.React(a, b, nil)
				if wx, wy := ciwSpec(a, b, n); x != wx || y != wy {
					t.Fatalf("n=%d: React(%d, %d) = (%d, %d), spec (%d, %d)", n, a, b, x, y, wx, wy)
				}
			}
		}
		spec := sim.CompactModel{Deterministic: true}
		spec.React = func(a, b uint64, _ *rng.PRNG) (uint64, uint64) { return ciwSpec(a, b, n) }
		permutation := func(v sim.CountView) bool {
			for r := uint64(1); r <= uint64(n); r++ {
				if v.Count(r) != 1 {
					return false
				}
			}
			return true
		}
		got, err := modelcheck.CheckCounts(spec, n, 1, uint64(n), permutation)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := CheckCIW(n); got != want {
			t.Fatalf("n=%d: spec report %+v, CheckCIW %+v", n, got, want)
		}
	}
}

// checkLooseLE checks LooseLE with timeout τ on n agents over every
// multiset of its 2(τ+1) keys; the target is exactly one leader.
func checkLooseLE(n int, tau int32) (modelcheck.CountReport, error) {
	m := baseline.NewLooseLE(n, tau).Compact()
	return modelcheck.CheckCounts(m, n, 0, m.StateSpace-1, func(v sim.CountView) bool {
		var leaders int64
		v.Each(func(key uint64, c int64) bool {
			if m.Leader(key) {
				leaders += c
			}
			return true
		})
		return leaders == 1
	})
}

// TestCheckLooseLE is LooseLE's first exhaustive check: for τ = 2, 3, 4
// and n ≤ 8, every configuration reaches exactly one leader. τ = 1 is no
// longer a LooseLE timeout (internal/baseline's TestLooseLETauFloor checks
// the rule there); NewLooseLE raises it to 2.
func TestCheckLooseLE(t *testing.T) {
	for tau := int32(2); tau <= 4; tau++ {
		for n := 2; n <= 8; n++ {
			rep, err := checkLooseLE(n, tau)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Configurations != binomial(n+2*int(tau)+1, n) || rep.Unreached != 0 {
				t.Fatalf("τ=%d n=%d: %+v", tau, n, rep)
			}
			t.Logf("τ=%d n=%d: %d configurations, %d with one leader, all reach one", tau, n, rep.Configurations, rep.Target)
		}
	}
	if tau := baseline.NewLooseLE(4, 1).Tau(); tau != 2 {
		t.Fatalf("τ 1 became %d, want the floor 2", tau)
	}
}
