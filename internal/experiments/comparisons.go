// comparisons.go implements the comparison experiments: ElectLeader_r vs the
// n-state CIW baseline (T11), the synthetic coin of Appendix B (T12), and
// the loosely-stabilizing extension (T13).

package experiments

import (
	"math"

	"sspp"
	"sspp/internal/adversary"
	"sspp/internal/baseline"
	"sspp/internal/coin"
	"sspp/internal/core"
	"sspp/internal/sim"
	"sspp/internal/stats"
	"sspp/internal/trials"
)

// T11Baselines compares end-to-end stabilization of ElectLeader_r against
// the n-state CIW protocol: the paper's protocol pays states to gain speed,
// CIW pays Θ(n²)+ time to stay at n states. Both are measured from their
// worst-ish uniform starts.
func T11Baselines(cfg Config) *Table {
	t := &Table{
		ID:    "T11",
		Title: "end-to-end comparison: ElectLeader_r vs the n-state CIW baseline",
		Claim: "§2: CIW stabilizes in Θ(n²)+ expected interactions with n states; " +
			"ElectLeader_r(r=n/4) in O(n·log n)-shaped time with 2^O(n²·log n) states",
		Header: []string{"protocol", "n", "mean interactions", "±95%", "parallel time", "state bits"},
	}
	ns := []int{32, 64}
	if !cfg.Quick {
		ns = []int{64, 128, 256, 512}
	}
	var cCIW, cEL stats.Acc // fitted constants of c·n² and c·n·ln n
	for _, n := range ns {
		// CIW from the all-rank-1 start, measured to output stability.
		ciwTimes, _ := seedTimes(cfg, cfg.seeds(), func(st trials.Streams) (float64, bool) {
			res := runCustom(baseline.NewCIW(n), sspp.Until(sspp.CorrectOutput), sspp.WithScheduler(&st.Sched),
				sspp.MaxInteractions(uint64(2000*n*n)), sspp.PollEvery(uint64(n/4)), sspp.Confirm(uint64(20*n*n)))
			return float64(res.StabilizedAt), res.Stabilized
		})
		ciw := stats.Summarize(ciwTimes)
		cCIW.Add(ciw.Mean / float64(n*n))
		t.Append("CIW (n states)", itoa(n), fmtU(uint64(ciw.Mean)), fmtU(uint64(ciw.CI95)),
			fmtF(ciw.Mean/float64(n), 1), fmtF(core.CaiIzumiWadaBits(float64(n)), 1))

		// ElectLeader_r at r = n/4 from a triggered configuration.
		r := maxInt(1, n/4)
		times, _ := measureSafeSet(cfg, n, r, adversary.ClassTriggered)
		if len(times) > 0 {
			s := stats.Summarize(times)
			cEL.Add(s.Mean / (float64(n) * math.Log(float64(n))))
			t.Append("ElectLeader(r=n/4)", itoa(n), fmtU(uint64(s.Mean)), fmtU(uint64(s.CI95)),
				fmtF(s.Mean/float64(n), 1), fmtU(uint64(core.ElectLeaderBits(float64(n), float64(r)))))
		}
	}
	t.Note("CIW measured to stable output from the all-rank-1 start; ElectLeader to safe set " +
		"from a triggered configuration (its stricter notion)")
	if cCIW.N() > 0 && cEL.N() > 0 {
		t.Note("fitted shapes: CIW ≈ %.2f·n² interactions; ElectLeader(r=n/4) ≈ %.0f·n·ln n interactions",
			cCIW.Mean(), cEL.Mean())
		t.Note("implied crossover (CIW slower beyond): n* ≈ %s", fmtU(uint64(crossover(cCIW.Mean(), cEL.Mean()))))
	}
	return t
}

// coinMixing is a population of synthetic-coin states whose interactions
// mix their bits (Appendix B), stepped by sim.Steps.
type coinMixing []coin.State

func (c coinMixing) N() int            { return len(c) }
func (c coinMixing) Interact(a, b int) { coin.Observe(&c[a], &c[b]) }
func (c coinMixing) Correct() bool     { return false }

// crossover solves cCIW·n² = cEL·n·ln n for n by fixed-point iteration.
func crossover(cCIW, cEL float64) float64 {
	n := 100.0
	for i := 0; i < 60; i++ {
		n = cEL / cCIW * math.Log(n)
	}
	return n
}

// T12SyntheticCoin validates Lemma B.1 (T12a: per-value sampling probability
// within [1/(2N), 2/N]) and runs ElectLeader_r fully derandomized (T12b).
func T12SyntheticCoin(cfg Config) *Table {
	t := &Table{
		ID:    "T12",
		Title: "synthetic coin (Appendix B): sampling quality and end-to-end run",
		Claim: "Lemma B.1: every value sampled with probability in [1/(2N), 2/N] after mixing; " +
			"derandomized ElectLeader_r stabilizes like the PRNG mode",
		Header: []string{"measurement", "value"},
	}
	// Part a: sampling census over a mixing population, on trial 0's
	// streams: the scheduler stream mixes, an extra role picks the sampled
	// agents.
	const (
		n     = 64
		space = 16
	)
	st := firstTrial(cfg)
	census := st.Fork()
	agents := make(coinMixing, n)
	for i := range agents {
		agents[i] = coin.NewState(coin.WidthFor(space), uint64(i))
	}
	mix := func(k int) { sim.Steps(agents, &st.Sched, uint64(k)) }
	mix(50 * n)
	rounds := 2000 * cfg.seeds()
	counts := make([]int, space)
	for i := 0; i < rounds; i++ {
		mix(2 * n * int(agents[0].Width))
		counts[agents[census.Intn(n)].Sample(space)]++
	}
	minC, maxC := counts[0], counts[0]
	for _, c := range counts[1:] {
		minC = minInt(minC, c)
		maxC = maxInt(maxC, c)
	}
	uniform := float64(rounds) / float64(space)
	t.Append("sample space N", itoa(space))
	t.Append("samples", itoa(rounds))
	t.Append("min P[x]·N", fmtF(float64(minC)/uniform, 3))
	t.Append("max P[x]·N", fmtF(float64(maxC)/uniform, 3))
	t.Append("Lemma B.1 band for P[x]·N", "[0.5, 2.0]")

	// Part b: end-to-end derandomized run.
	const en, er = 24, 6
	type modePair struct {
		prng, synth float64 // -1 when the mode did not stabilize
	}
	pairs := seedTrials(cfg, cfg.seeds(), func(st trials.Streams) modePair {
		out := modePair{prng: -1, synth: -1}
		for _, mode := range []bool{false, true} {
			opts := []core.Option{core.WithSeed(st.ProtoSeed)}
			if mode {
				opts = append(opts, core.WithSyntheticCoins())
			}
			p, err := core.New(en, er, opts...)
			if err != nil {
				continue
			}
			sched := st.Sched // both modes deal the same schedule
			res := runCustom(p, sspp.WithScheduler(&sched), sspp.MaxInteractions(safeSetBudget(en, er)))
			if !res.Stabilized {
				continue
			}
			if mode {
				out.synth = float64(res.StabilizedAt)
			} else {
				out.prng = float64(res.StabilizedAt)
			}
		}
		return out
	})
	var prng, synth stats.Acc
	for _, pair := range pairs {
		if pair.prng >= 0 {
			prng.Add(pair.prng)
		}
		if pair.synth >= 0 {
			synth.Add(pair.synth)
		}
	}
	t.Append("ElectLeader(24,6) PRNG mode: mean safe-set time", fmtU(uint64(prng.Mean())))
	t.Append("ElectLeader(24,6) synthetic mode: mean safe-set time", fmtU(uint64(synth.Mean())))
	t.Append("synthetic successes", itoa(synth.N())+"/"+itoa(cfg.seeds()))
	t.Note("identical timings across modes are expected: safe-set arrival is dominated by the " +
		"deterministic countdown under a shared scheduler stream; the modes differ in the " +
		"drawn identifiers/signatures, i.e. in *which* ranking is produced")
	return t
}

// T13LooseLeader reproduces the loose-stabilization trade-off of the related
// work ([29, 30]): larger timeouts τ lengthen the leader's holding time at
// the cost of slower convergence; τ below the epidemic time cannot hold a
// leader at all. Convergence runs through the generalized cross-protocol
// Ensemble (protocol "loosele", whose missing safe-set capability makes the
// engine measure confirmed correct output — exactly the loose-stabilization
// notion); the holding fraction is measured by follow-up runs through the
// same public engine.
func T13LooseLeader(cfg Config) *Table {
	t := &Table{
		ID:    "T13",
		Title: "loosely-stabilizing leader election: convergence vs holding",
		Claim: "[29,30]: below the heartbeat-epidemic scale (τ = O(log n)) the leader churns; " +
			"above it the leader is held long — but only for a finite time, unlike Thm 1.1",
		Header: []string{"τ/ln(n)", "τ", "converged runs", "mean convergence", "held fraction"},
	}
	for _, factor := range []float64{0.5, 1, 4, 16} {
		g := t13Grid(cfg, factor)
		ens, err := sspp.NewEnsemble(g, sspp.Workers(cfg.Workers))
		if err != nil {
			t.Note("τ=%d grid rejected: %v", g.Tau, err)
			continue
		}
		cell := ens.Run().Cells[0]
		held, polls := 0.0, 0.0
		for _, o := range t13Holding(cfg, g) {
			held += o.held
			polls += o.polls
		}
		convStr := "-"
		if cell.Recovered > 0 {
			convStr = fmtU(uint64(cell.Interactions.Mean))
		}
		t.Append(fmtF(factor, 2), fmtU(uint64(g.Tau)), itoa(cell.Recovered)+"/"+itoa(cfg.seeds()),
			convStr, fmtF(held/polls, 3))
	}
	t.Note("convergence measured through the cross-protocol Ensemble (loosele runs under the " +
		"safe-set fallback: correct output confirmed for 4·n interactions)")
	return t
}

// t13Grid is T13's convergence grid at τ = factor·ln n, n = 64: one loosele
// cell, run to correct output confirmed for 4·n interactions within
// 200·n·ln n. The timer ticks on an agent's own interactions, and the
// leader's heartbeat epidemic needs Θ(log n) of them to arrive, so the
// interesting τ scale is Θ(log n) — not Θ(n·log n).
func t13Grid(cfg Config, factor float64) sspp.Grid {
	const n = 64
	ln := math.Log(n)
	return sspp.Grid{
		Protocols:       []string{sspp.ProtocolLooseLE},
		Points:          []sspp.Point{{N: n}},
		Seeds:           cfg.seeds(),
		BaseSeed:        cfg.BaseSeed,
		MaxInteractions: uint64(200 * n * ln),
		Confirm:         4 * n,
		Tau:             int32(factor * ln),
	}
}

// holding is one T13 follow-up trial: its convergence run and how many of
// the output polls after it found exactly one leader.
type holding struct {
	converged   sspp.Result
	held, polls float64
}

// t13Holding measures the holding fraction of g's cell over a follow-up
// window. Each seed re-runs the cell's trial on its own protocol seed and
// scheduler stream (the Ensemble does not expose live systems, and a T13
// trial is cheap), then polls the output while that stream continues.
func t13Holding(cfg Config, g sspp.Grid) []holding {
	n := g.Points[0].N
	return seedTrials(cfg, g.Seeds, func(st trials.Streams) holding {
		sys, err := sspp.New(sspp.Config{Protocol: sspp.ProtocolLooseLE, N: n, Tau: g.Tau, Seed: st.ProtoSeed})
		if err != nil {
			return holding{}
		}
		out := holding{converged: sys.Run(sspp.WithScheduler(&st.Sched),
			sspp.MaxInteractions(g.MaxInteractions), sspp.Confirm(g.Confirm))}
		for i := 0; i < 200; i++ {
			if sys.StepSched(&st.Sched, uint64(n)) != nil {
				return holding{}
			}
			out.polls++
			if sys.Correct() {
				out.held++
			}
		}
		return out
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
