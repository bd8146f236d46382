// electspecies.go implements experiment S3: ElectLeader_r's species form
// (internal/core/compact.go). Unlike CIW or LooseLE, whose states pack
// into O(1) words, an ElectLeader_r state is genuinely O(r) words (the
// AssignRanks channel) — that is the space side of the paper's trade-off —
// so compaction cannot shrink the per-interaction constant. And the
// protocol keeps ~n distinct states (distinct random IDs, then distinct
// ranks, by design), so the count multiset degenerates to
// one-agent-per-state: the occupancy facet records that, and bench/
// (species-elect) times what it costs. What the species form buys is the
// count-based engine surface (uniform equivalence gates, count churn, the
// τ-leaping clocks, one engine for every protocol), not speed. The second
// facet extends the T1 curve through both backends: safe-set arrival in
// the linear regime (r = n/4) at populations ~10× past the agent-only T1
// table, with the same (n²/r)·ln n normalization, at matched seeds.

package experiments

import (
	"fmt"
	"math"

	"sspp"
	"sspp/internal/core"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
	"sspp/internal/stats"
)

// s3OccupancyPoints are the (n, r) cells of the occupancy facet: n-scaling
// at small fixed r, then r-scaling at fixed n.
func s3OccupancyPoints(quick bool) []struct{ n, r int } {
	if quick {
		return []struct{ n, r int }{
			{10_000, 64}, {100_000, 64}, {10_000, 1024},
		}
	}
	return []struct{ n, r int }{
		{100_000, 64}, {1_000_000, 64},
		{10_000, 16}, {10_000, 256}, {10_000, 4096},
	}
}

// s3SafeSetSizes are the extended-range T1 populations (linear regime,
// r = n/4, where Theorem 1.1's (n²/r)·log n bound is Θ(n·log n) and
// safe-set arrival stays affordable at populations the agent-only T1 table
// (n ≤ 96) never reaches). n=1024 is the full-mode ceiling: arrival time
// scales as n·log n but the per-interaction O(r) copy makes total work
// ~n²·log n, a couple of minutes across seeds and backends already.
func s3SafeSetSizes(quick bool) []int {
	if quick {
		return []int{256, 512}
	}
	return []int{256, 512, 1024}
}

// S3ElectLeaderSpecies records ElectLeader_r's species form: occupied
// states over (n, r), and safe-set arrival from the cold start at r = n/4
// on both backends.
func S3ElectLeaderSpecies(cfg Config) *Table {
	t := &Table{
		ID:    "S3",
		Title: "ElectLeader_r species form: occupancy over (n, r) and extended-range safe-set arrival",
		Claim: "per-interaction cost is O(r) on both backends (the state IS O(r) words — the paper's space side), " +
			"and ElectLeader_r keeps ~n distinct states (distinct ranks by design), so the species form pays " +
			"interning on top of the copy with no count-merging to exploit (occupied ~ n). " +
			"The species form buys the count-based engine surface, not speed; the safe-set facet extends the T1 " +
			"curve (norm ~ flat at r = n/4, species/agent arrival ratio ~ 1.0)",
		Header: []string{"facet", "n", "r", "backend", "interactions", "occupied", "norm", "vs agent"},
	}

	// Facet 1: occupied states after a fixed per-agent interaction budget
	// from the cold start.
	perAgent := uint64(10)
	if cfg.Quick {
		perAgent = 2
	}
	for _, pt := range s3OccupancyPoints(cfg.Quick) {
		budget := perAgent * uint64(pt.n)
		agent, err := core.New(pt.n, pt.r, core.WithSeed(cfg.BaseSeed+31))
		if err != nil {
			t.Note("n=%d r=%d: %v", pt.n, pt.r, err)
			continue
		}
		sp, err := species.NewSystem(agent.Compact(), 1)
		if err != nil {
			t.Note("n=%d r=%d: %v", pt.n, pt.r, err)
			continue
		}
		sim.Steps(sp, rng.New(cfg.BaseSeed+17), budget)
		t.Append("occupancy", fmtU(uint64(pt.n)), fmtU(uint64(pt.r)), "species", fmtU(budget),
			fmtU(uint64(sp.Occupied())), "-", "")
	}

	// Facet 2: the extended-range T1 curve — safe-set arrival (Lemma 6.1,
	// Until(SafeSet) through the public engine) in the linear regime on both
	// backends at matched seeds. The norm column carries T1's
	// interactions/((n²/r)·ln n) normalization so the rows continue that
	// table's curve; the "vs agent" ratio of the mean arrival times should
	// hover near 1.0 (the backends simulate the same chain).
	for _, n := range s3SafeSetSizes(cfg.Quick) {
		r := n / 4
		var agentMean float64
		for _, backend := range []string{"agent", "species"} {
			var times []float64
			fails := 0
			for s := 0; s < cfg.seeds(); s++ {
				src := rng.New(cfg.BaseSeed + 23 + uint64(s))
				protoSeed := src.Uint64()
				schedSeed := src.Uint64()
				sys, err := sspp.New(sspp.Config{
					Protocol: sspp.ProtocolElectLeader, N: n, R: r,
					Seed: protoSeed, Backend: backend,
				})
				if err != nil {
					fails++
					continue
				}
				res := sys.Run(sspp.Until(sspp.SafeSet), sspp.SchedulerSeed(schedSeed))
				if !res.Stabilized {
					fails++
					continue
				}
				times = append(times, float64(res.StabilizedAt))
			}
			if len(times) == 0 {
				t.Append("safe-set", fmtU(uint64(n)), fmtU(uint64(r)), backend,
					"-", "-", "-", fmt.Sprintf("%d fails", fails))
				continue
			}
			s := stats.Summarize(times)
			norm := s.Mean / (float64(n*n) / float64(r) * math.Log(float64(n)))
			ratio := ""
			if backend == "agent" {
				agentMean = s.Mean
			} else if agentMean > 0 {
				ratio = fmtF(s.Mean/agentMean, 2)
			}
			t.Append("safe-set", fmtU(uint64(n)), fmtU(uint64(r)), backend,
				fmtU(uint64(s.Mean)), "-", fmtF(norm, 2), ratio)
		}
	}

	t.Note("occupancy budget is %d interactions per agent per row from the cold start; the vs-agent column is species/agent mean arrival (safe-set)", perAgent)
	t.Note("the species form's cost is timed by bench/ (species-elect), not here")
	t.Note("equivalence is gated separately: KS/Mann-Whitney at n=512 r=128 (internal/species/equiv_test.go) and the exact schedule mirror (internal/core/compact_test.go)")
	return t
}
