// discrepancy_test.go runs the load-balancing process to a discrepancy
// target through the public engine, System.Run, so it is an external test
// package.
package loadbalance_test

import (
	"math"
	"testing"

	"sspp"
	"sspp/internal/loadbalance"
)

// runUntilDiscrepancy runs p under the uniform scheduler seeded with seed
// until its discrepancy is at most target (polled every ⌈n/2⌉+1
// interactions) or max interactions elapse.
func runUntilDiscrepancy(t *testing.T, p *loadbalance.Process, seed uint64, target int64, max uint64) sspp.Result {
	t.Helper()
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	balanced := sspp.ConditionFunc("discrepancy", func(*sspp.System) bool { return p.Discrepancy() <= target })
	return sys.Run(sspp.Until(balanced), sspp.SchedulerSeed(seed), sspp.MaxInteractions(max))
}

// TestTightAndSimpleBound reproduces the shape of Theorem 1 of [9]: from a
// point mass of 2n tokens, the process reaches discrepancy ≤ 3 within
// c·n·log n interactions on every tried seed, for a modest c.
func TestTightAndSimpleBound(t *testing.T) {
	const n = 128
	bound := uint64(40 * float64(n) * math.Log(n))
	for seed := uint64(0); seed < 8; seed++ {
		p := loadbalance.NewPointMass(n, 2*n)
		res := runUntilDiscrepancy(t, p, seed, 3, bound)
		if !res.Stabilized {
			t.Errorf("seed %d: discrepancy %d after %d interactions", seed, p.Discrepancy(), res.Interactions)
		}
	}
}

func TestRunUntilDiscrepancyImmediate(t *testing.T) {
	p := loadbalance.New([]int64{3, 3, 3})
	res := runUntilDiscrepancy(t, p, 1, 1, 10)
	if !res.Stabilized || res.Interactions != 0 {
		t.Fatalf("expected immediate success, got %+v", res)
	}
}

func TestRunUntilDiscrepancyTimeout(t *testing.T) {
	p := loadbalance.NewPointMass(16, 1600)
	res := runUntilDiscrepancy(t, p, 1, 0, 5)
	if res.Stabilized {
		t.Fatal("expected timeout")
	}
	if res.Interactions != 5 {
		t.Fatalf("Interactions = %d, want 5", res.Interactions)
	}
}
