// completeness_test.go runs the detection harness to ⊤ through the public
// engine, System.Run, so it is an external test package (sspp imports
// detect through core).
package detect_test

import (
	"math"
	"testing"

	"sspp"
	"sspp/internal/detect"
	"sspp/internal/rng"
)

// TestCompletenessDuplicateRank is Lemma E.1(b): with a duplicated rank, ⊤
// is raised within O((n²/r)·log n) interactions, w.h.p.
func TestCompletenessDuplicateRank(t *testing.T) {
	const n = 32
	for _, r := range []int{4, 8, 16} {
		for seed := uint64(0); seed < 5; seed++ {
			ranks := make([]int32, n)
			for i := range ranks {
				ranks[i] = int32(i + 1)
			}
			// Duplicate one rank inside the first group; the displaced rank
			// disappears (as after a failed ranking).
			ranks[1] = 1
			h, err := detect.NewHarness(n, r, ranks, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			bound := uint64(200 * float64(n*n) / float64(r) * math.Log(n))
			sys, err := sspp.NewCustom(h)
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run(sspp.Until(sspp.CorrectOutput), sspp.SchedulerSeed(seed+55),
				sspp.MaxInteractions(bound), sspp.PollEvery(n/2), sspp.Confirm(1))
			if !res.Stabilized {
				t.Fatalf("r=%d seed=%d: no detection within %d interactions", r, seed, bound)
			}
		}
	}
}
