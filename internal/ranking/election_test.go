// election_test.go runs FastLeaderElect to a confirmed unique leader
// through the public engine, System.Run, so it is an external test package
// (sspp imports ranking).
package ranking_test

import (
	"math"
	"testing"

	"sspp"
	"sspp/internal/coin"
	"sspp/internal/ranking"
	"sspp/internal/rng"
)

// TestLemmaD10FastLeaderElect: FastLeaderElect elects exactly one leader
// within O(n·log n) interactions, across seeds (experiment T4's core).
func TestLemmaD10FastLeaderElect(t *testing.T) {
	const n = 128
	bound := uint64(200 * float64(n) * math.Log(n))
	failures := 0
	for seed := uint64(0); seed < 10; seed++ {
		f := ranking.NewFastLE(n, coin.FromPRNG(rng.New(seed)))
		sys, err := sspp.NewCustom(f)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(sspp.Until(sspp.CorrectOutput), sspp.SchedulerSeed(seed+1000),
			sspp.MaxInteractions(bound), sspp.PollEvery(n/4), sspp.Confirm(4*n))
		if !res.Stabilized {
			failures++
			t.Logf("seed %d: leaders=%d done=%v", seed, f.Leaders(), f.AllDone())
		}
	}
	if failures > 0 {
		t.Fatalf("%d/10 elections failed (w.h.p. event)", failures)
	}
}
