// completion_test.go measures epidemic completion times (Lemma A.2)
// through the public engine, System.Run, so it is an external test package.
package epidemic_test

import (
	"math"
	"testing"

	"sspp"
	"sspp/internal/epidemic"
	"sspp/internal/rng"
)

// completionTime runs an epidemic from a source drawn from r until every
// agent is infected, polling after every interaction, and returns the
// number of interactions it took.
func completionTime(t *testing.T, n int, r *rng.PRNG, twoWay bool) uint64 {
	t.Helper()
	src := r.Intn(n)
	var p sspp.Protocol = epidemic.NewOneWay(n, src)
	if twoWay {
		p = epidemic.NewTwoWay(n, src)
	}
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(sspp.Until(sspp.CorrectOutput), sspp.WithScheduler(r), sspp.PollEvery(1))
	if !res.Stabilized {
		t.Fatalf("epidemic on %d agents did not complete within %d interactions", n, res.Interactions)
	}
	return res.StabilizedAt
}

func TestCompletion(t *testing.T) {
	r := rng.New(10)
	for _, twoWay := range []bool{false, true} {
		e := completionTime(t, 64, r, twoWay)
		if e == 0 {
			t.Fatal("zero completion time")
		}
	}
}

// TestLemmaA2Bound spot-checks Lemma A.2: a two-way epidemic completes well
// within c·n·ln(n) interactions for a modest constant, on every tried seed.
func TestLemmaA2Bound(t *testing.T) {
	const n = 256
	bound := uint64(20 * float64(n) * math.Log(n))
	for seed := uint64(0); seed < 10; seed++ {
		r := rng.New(seed)
		got := completionTime(t, n, r, true)
		if got > bound {
			t.Errorf("seed %d: completion %d exceeds %d", seed, got, bound)
		}
	}
}
