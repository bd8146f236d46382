// clock.go implements experiment S2: the continuous-clock table. The
// species backend's exact continuous stepper equips every interaction of
// the jump chain with an exponential holding time (rate n/2), which keeps
// the trajectory bit-identical to the discrete clock but pays a per-event
// draw; τ-leaping (internal/species/leap.go) bundles whole Poisson batches
// of channel firings per leap and only falls back to exact stepping when
// counts run scarce or the occupied-state set grows past the leap bounds.
// S2 drives both arms with the same protocols at n ∈ {10⁵, 10⁶, 10⁷} and
// records the native parallel time each arm reports — the two curves must
// agree at the Poisson scale 2·interactions/n. The leaped arm's ≥ 10×
// speedup in reactive regimes is enforced by TestTauLeapThroughputGuard;
// distributional equivalence by the KS/Mann-Whitney gate in clock_test.go
// at the repo root.

package experiments

import (
	"sspp/internal/baseline"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

// s2Sizes are the S2 population sizes (the same scale ladder as S1).
var s2Sizes = []int{100_000, 1_000_000, 10_000_000}

// s2Protocol describes one S2 protocol row: a compactable constructor and
// the regime note explaining which τ-leap path it exercises.
type s2Protocol struct {
	name  string
	build func(n int) sim.CompactModel
}

// s2Protocols are the deterministic compactable protocols S2 sweeps. CIW's
// early cascade is the leap-friendly regime (few occupied states, nearly
// every interaction reactive); LooseLE exercises the pair-channel path,
// leaping while its occupied set is small and routing through the exact
// fallback once states proliferate toward 2(τ+1).
func s2Protocols() []s2Protocol {
	return []s2Protocol{
		{
			name:  "ciw",
			build: func(n int) sim.CompactModel { return baseline.NewCIW(n).Compact() },
		},
		{
			name:  "loosele",
			build: func(n int) sim.CompactModel { return baseline.NewLooseLE(n, 48).Compact() },
		},
	}
}

// S2TauLeapClock records exact-vs-τ-leaped continuous stepping per
// protocol and population size.
func S2TauLeapClock(cfg Config) *Table {
	t := &Table{
		ID:    "S2",
		Title: "continuous clock at n = 1e5..1e7 (exact jump chain vs tau-leaping)",
		Claim: "tau-leaping preserves the continuous-time law (KS/Mann-Whitney gated at the public API) " +
			"while bundling Poisson batches per channel; >= 10x over the exact sampler in reactive regimes " +
			"(guarded in internal/species), graceful exact fallback when counts run scarce or states proliferate",
		Header: []string{"protocol", "n", "clock", "interactions", "parallel time", "occupied"},
	}
	perAgent := uint64(10)
	if cfg.Quick {
		perAgent = 2
	}
	for _, proto := range s2Protocols() {
		for _, n := range s2Sizes {
			budget := perAgent * uint64(n)
			for _, arm := range []struct {
				name string
				leap bool
			}{{"continuous-exact", false}, {"tau-leap", true}} {
				sp, err := species.NewSystem(proto.build(n), 1)
				if err != nil {
					t.Note("%s n=%d: %v", proto.name, n, err)
					continue
				}
				sched := rng.New(cfg.BaseSeed + 29)
				sp.StartContinuous(rng.New(cfg.BaseSeed+31), arm.leap)
				sim.Steps(sp, sched, budget)
				t.Append(proto.name, fmtU(uint64(n)), arm.name, fmtU(budget),
					fmtF(sp.ParallelTime(), 3), fmtU(uint64(sp.Occupied())))
			}
		}
	}
	t.Note("budget is %d interactions per agent per row (quick mode shrinks it)", perAgent)
	t.Note("both arms report native parallel time (expected scale 2*interactions/n); the curves must agree up to Poisson fluctuation")
	t.Note("loosele leaps while its occupied set stays under the pair-channel bound; once states proliferate toward 2(tau+1) the leaped arm routes through the exact fallback")
	t.Note("the tau-leap speedup is guarded by TestTauLeapThroughputGuard (internal/species), not timed here")
	return t
}
