// recovery_test.go runs ElectLeader_r from every adversarial class to the
// safe set through the public engine, System.Run, so it is an external test
// package (sspp imports adversary).
package adversary_test

import (
	"math"
	"testing"

	"sspp"
	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/rng"
)

// TestRecoveryFromEveryClass is the integration heart of the reproduction:
// from every adversarial class, ElectLeader_r reaches the safe set within
// the Theorem 1.1 budget; classes whose faults are confined to the detection
// layer must additionally keep the ranking intact.
func TestRecoveryFromEveryClass(t *testing.T) {
	const n, r = 16, 4
	bound := uint64(800 * float64(n*n) / float64(r) * math.Log(n))
	for ci, class := range adversary.Classes() {
		class := class
		t.Run(string(class), func(t *testing.T) {
			seed := uint64(ci) + 100
			p, err := core.New(n, r, core.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := adversary.Apply(p, class, rng.New(seed)); err != nil {
				t.Fatalf("apply: %v", err)
			}
			var ranksBefore []int32
			if adversary.ExpectsRankingPreserved(class) {
				ranksBefore = make([]int32, n)
				for i := 0; i < n; i++ {
					ranksBefore[i] = p.RankOutput(i)
				}
			}
			sys, err := sspp.NewCustom(p)
			if err != nil {
				t.Fatal(err)
			}
			if res := sys.Run(sspp.SchedulerSeed(seed+1), sspp.MaxInteractions(bound)); !res.Stabilized {
				t.Fatalf("no safe set within %d interactions (ran %d)", bound, res.Interactions)
			}
			if ranksBefore != nil {
				for i := 0; i < n; i++ {
					if p.RankOutput(i) != ranksBefore[i] {
						t.Fatalf("agent %d rank changed %d -> %d (hard reset on message-only fault)",
							i, ranksBefore[i], p.RankOutput(i))
					}
				}
			}
		})
	}
}
