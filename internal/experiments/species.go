// species.go implements experiment S1: the large-n occupancy table of the
// species backend. The agent backend stores one struct per agent; the
// species backend (internal/species) stores state counts, samples
// interactions from an incrementally maintained alias table, and — for
// diagonal protocols like CIW — skips entire silent runs in one geometric
// draw, so its per-interaction cost depends on the occupied states, not
// on n. S1 drives both backends with the same protocols at
// n ∈ {10⁵, 10⁶, 10⁷} and records the occupied-state count each reaches.
// Statistical equivalence of the two backends is enforced separately
// (internal/species/equiv_test.go and the nightly soak job); throughput is
// timed by bench/ (species-ciw) and guarded by
// TestCIWSpeciesThroughputBudget.

package experiments

import (
	"sspp/internal/baseline"
	"sspp/internal/sim"
	"sspp/internal/species"
)

// s1Sizes are the S1 population sizes (the ISSUE-4 columns).
var s1Sizes = []int{100_000, 1_000_000, 10_000_000}

// s1Protocol describes one S1 protocol by its agent-level constructor.
type s1Protocol struct {
	name  string
	build func(n int) sim.Protocol
}

// occupied counts the distinct agent states of an agent-level instance
// through the species key encoding (the species backend tracks this
// natively).
func occupied(p sim.Protocol) int {
	keyer, ok := sim.AsStateKeyer(p)
	if !ok {
		panic("species occupancy protocol must expose its state keys")
	}
	seen := make(map[uint64]struct{})
	for i := 0; i < p.N(); i++ {
		seen[keyer.StateKey(i)] = struct{}{}
	}
	return len(seen)
}

// s1Protocols are the compactable protocols S1 sweeps. CIW exercises the
// diagonal silent-skip fast path; LooseLE exercises the every-interaction
// ReactAll path with a state space bounded by 2(τ+1).
func s1Protocols() []s1Protocol {
	return []s1Protocol{
		{
			name:  "ciw",
			build: func(n int) sim.Protocol { return baseline.NewCIW(n) },
		},
		{
			// CIW a few faults away from its silent permutation: the regime
			// every self-stabilizing run spends most wall-clock time in, and
			// where the geometric silent-skip collapses whole runs of
			// interactions into one draw.
			name: "ciw-late",
			build: func(n int) sim.Protocol {
				ranks := make([]int32, n)
				for i := range ranks {
					ranks[i] = int32(i + 1)
				}
				for i := 0; i < 4 && i+1 < n; i++ {
					ranks[i] = ranks[i+1] // a handful of duplicate ranks
				}
				return baseline.NewCIWFromRanks(ranks)
			},
		},
		{
			name: "loosele",
			build: func(n int) sim.Protocol {
				return baseline.NewLooseLE(n, 48)
			},
		},
	}
}

// S1SpeciesBackend records agent-vs-species occupancy per protocol and
// population size.
func S1SpeciesBackend(cfg Config) *Table {
	t := &Table{
		ID:    "S1",
		Title: "species backend occupancy at n = 1e5..1e7 (agent vs state-count simulation)",
		Claim: "per-interaction cost of the species backend depends on occupied states, not n; " +
			"backend equivalence is gated statistically in internal/species (KS/Mann-Whitney, 200 paired trials)",
		Header: []string{"protocol", "n", "backend", "interactions", "occupied"},
	}
	perAgent := uint64(10)
	if cfg.Quick {
		perAgent = 2
	}
	for _, proto := range s1Protocols() {
		for _, n := range s1Sizes {
			budget := perAgent * uint64(n)
			for _, backend := range []string{"agent", "species"} {
				agent := proto.build(n)
				var p sim.Protocol = agent
				count := func() int { return occupied(agent) }
				if backend == "species" {
					comp, ok := sim.AsCompactable(agent)
					if !ok {
						panic("species occupancy protocol must be Compactable")
					}
					sp, err := species.NewSystem(comp.Compact(), 1)
					if err != nil {
						t.Note("%s n=%d: %v", proto.name, n, err)
						continue
					}
					p, count = sp, sp.Occupied
				}
				sched := firstTrial(cfg).Sched
				sim.Steps(p, &sched, budget)
				t.Append(proto.name, fmtU(uint64(n)), backend, fmtU(budget), fmtU(uint64(count())))
			}
		}
	}
	t.Note("budget is %d interactions per agent per row (quick mode shrinks it)", perAgent)
	t.Note("CIW uses the diagonal silent-skip fast path (reactive interactions only); LooseLE samples every interaction from <= 2(tau+1) occupied states")
	t.Note("throughput is timed by bench/ (species-ciw) and guarded by TestCIWSpeciesThroughputBudget (internal/species)")
	return t
}
