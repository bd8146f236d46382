// ablations.go implements the design-choice ablations called out in
// DESIGN.md: each switches off or rescales one mechanism of ElectLeader_r
// and measures what the paper's analysis says should break.
//
//	A1 — soft reset disabled (§3.2): message faults destroy correct rankings.
//	A2 — probation ceiling P_max scaled: too small misclassifies genuine
//	     collisions as message noise and slows recovery.
//	A3 — signature refresh period (Protocol 13's c·log r): too large delays
//	     detection; too small is tolerated (refreshes are cheap).
//	A4 — load balancing disabled (Protocol 14): refreshed messages do not
//	     circulate and detection degrades.

package experiments

import (
	"math"

	"sspp"
	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/detect"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/stats"
	"sspp/internal/trials"
	"sspp/internal/verify"
)

// A1SoftResetAblation reruns the T9 scenario (correct ranking, corrupted
// messages) with the soft-reset mechanism disabled: every ⊤ becomes a full
// reset, so the pre-existing correct ranking is destroyed and recovery costs
// a complete re-ranking.
func A1SoftResetAblation(cfg Config) *Table {
	t := &Table{
		ID:    "A1",
		Title: "ablation: soft reset disabled (every ⊤ hard-resets)",
		Claim: "§3.2: without soft resets, message corruption on a correct ranking " +
			"forces a full re-ranking (ranking preserved drops to 0), and recovery slows",
		Header: []string{"variant", "n", "r", "hard resets (mean)", "ranking preserved", "safe-set time (mean)"},
	}
	const n, r = 12, 6
	for _, hardOnly := range []bool{false, true} {
		name := "paper (soft reset)"
		if hardOnly {
			name = "ablated (hard only)"
		}
		results := seedTrials(cfg, cfg.seeds(), func(st trials.Streams) preservationOutcome {
			consts := core.DefaultConstants(n, r)
			consts.DisableSoftReset = hardOnly
			return preservationTrial(n, r, &consts, st, adversary.ClassCorruptMessages)
		})
		var hard, times stats.Acc
		preserved, runs := 0, 0
		for _, o := range results {
			if !o.ran {
				continue
			}
			runs++
			if !o.finished {
				continue
			}
			times.Add(o.took)
			hard.Add(float64(o.hard))
			if o.preserved {
				preserved++
			}
		}
		t.Append(name, itoa(n), itoa(r), fmtF(hard.Mean(), 1),
			itoa(preserved)+"/"+itoa(runs), fmtU(uint64(times.Mean())))
	}
	return t
}

// A2ProbationAblation scales P_max and measures recovery from a genuine rank
// collision. A tiny P_max lets agents leave probation before detection
// completes, so the first ⊤ is soft (wasted round trip) and escalation to
// the necessary hard reset is delayed.
func A2ProbationAblation(cfg Config) *Table {
	t := &Table{
		ID:    "A2",
		Title: "ablation: probation ceiling P_max scaled",
		Claim: "§3.2/Lemma F.5: P_max must exceed the detection latency; " +
			"small P_max wastes soft resets on genuine collisions before escalating",
		Header: []string{"P_max factor", "P_max", "soft resets (mean)", "hard resets (mean)", "safe-set time (mean)", "fails"},
	}
	// A large group (r = n/2) makes detection latency non-trivial, so an
	// undersized P_max expires before detection and the escalation of
	// Protocol 2 misfires into repeated soft resets.
	const n, r = 32, 16
	base := verify.DefaultPMax(n, r)
	for _, factor := range []float64{0.02, 0.25, 1, 4} {
		pmax := int32(math.Max(1, factor*float64(base)))
		type outcome struct {
			ok               bool
			took, soft, hard float64
		}
		results := seedTrials(cfg, cfg.seeds(), func(st trials.Streams) outcome {
			consts := core.DefaultConstants(n, r)
			consts.PMax = pmax
			ev := sim.NewEvents()
			p, err := core.New(n, r, core.WithSeed(st.ProtoSeed), core.WithConstants(consts), core.WithEvents(ev))
			if err != nil {
				return outcome{}
			}
			if err := adversary.Apply(p, adversary.ClassTwoLeaders, &st.Adv); err != nil {
				return outcome{}
			}
			res := runCustom(p, sspp.WithScheduler(&st.Sched), sspp.MaxInteractions(safeSetBudget(n, r)))
			if !res.Stabilized {
				return outcome{}
			}
			return outcome{ok: true, took: float64(res.StabilizedAt),
				soft: float64(ev.Count(sim.EvSoftReset)),
				hard: float64(ev.Count(sim.EvHardReset))}
		})
		var soft, hard, times stats.Acc
		fails := 0
		for _, o := range results {
			if !o.ok {
				fails++
				continue
			}
			times.Add(o.took)
			soft.Add(o.soft)
			hard.Add(o.hard)
		}
		if times.N() == 0 {
			t.Append(fmtF(factor, 2), itoa(int(pmax)), "-", "-", "-", itoa(fails))
			continue
		}
		t.Append(fmtF(factor, 2), itoa(int(pmax)), fmtF(soft.Mean(), 1), fmtF(hard.Mean(), 1),
			fmtU(uint64(times.Mean())), itoa(fails))
	}
	return t
}

// A3RefreshAblation varies the signature refresh constant of Protocol 13 and
// measures detection latency under a duplicated rank (the T7 workload).
// Without refreshes (huge period) the two same-rank agents keep identical
// signature 1 forever and message contents never conflict.
func A3RefreshAblation(cfg Config) *Table {
	t := &Table{
		ID:    "A3",
		Title: "ablation: signature refresh period (Protocol 13)",
		Claim: "§3.1: refreshes every Θ(log r) interactions drive detection; " +
			"rare refreshes delay it toward the direct-meeting bound",
		Header: []string{"refresh c", "mean interactions to ⊤", "p90", "misses"},
	}
	const n, r = 24, 12
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i + 1)
	}
	ranks[1] = 1
	for _, c := range []int{1, 8, 64, 100000} {
		times, misses := seedTimes(cfg, 2*cfg.seeds(), func(st trials.Streams) (float64, bool) {
			h, err := newHarnessWithRefresh(n, r, ranks, st.ProtoSeed, c)
			if err != nil {
				return 0, false
			}
			res := runCustom(h, sspp.Until(sspp.CorrectOutput), sspp.WithScheduler(&st.Sched),
				sspp.MaxInteractions(4*safeSetBudget(n, r)), sspp.PollEvery(uint64(n/2)), sspp.Confirm(1))
			return float64(res.StabilizedAt), res.Stabilized
		})
		if len(times) == 0 {
			t.Append(itoa(c), "-", "-", itoa(misses))
			continue
		}
		s := stats.Summarize(times)
		t.Append(itoa(c), fmtU(uint64(s.Mean)), fmtU(uint64(s.P90)), itoa(misses))
	}
	t.Note("c=100000 effectively disables refreshes: detection falls back to direct " +
		"same-rank meetings and duplicate-message checks")
	return t
}

// newHarnessWithRefresh builds a detect harness with a custom refresh
// constant.
func newHarnessWithRefresh(n, r int, ranks []int32, seed uint64, c int) (*detect.Harness, error) {
	h, err := detect.NewHarness(n, r, ranks, rng.New(seed))
	if err != nil {
		return nil, err
	}
	*h.Params() = *detect.NewParamsWithRefresh(n, r, c)
	return h, nil
}

// A4LoadBalanceAblation disables BalanceLoad and measures detection latency
// from the adversarial message distribution the mechanism exists to repair:
// all messages of the duplicated rank clumped at a single third agent. With
// balancing the hoard disperses in O(n·log n) and the signature-conflict
// amplification works; without it the two duplicates must both personally
// visit the hoarder (or meet each other directly).
func A4LoadBalanceAblation(cfg Config) *Table {
	t := &Table{
		ID:    "A4",
		Title: "ablation: load balancing (Protocol 14) disabled, clumped start",
		Claim: "§3.1/Lemma E.6: balancing maintains the per-rank holding invariant that " +
			"makes detection fast; from a clumped start its removal slows detection",
		Header: []string{"variant", "n", "mean interactions to ⊤", "p90", "misses"},
	}
	const n = 32 // one group: r = n, the full-messaging regime
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i + 1)
	}
	ranks[1] = 1 // agents 0 and 1 collide on rank 1
	for _, disable := range []bool{false, true} {
		name := "paper (balanced)"
		if disable {
			name = "ablated (no balancing)"
		}
		times, misses := seedTimes(cfg, 2*cfg.seeds(), func(st trials.Streams) (float64, bool) {
			h, err := detect.NewHarness(n, n/2, ranks, rng.New(st.ProtoSeed))
			if err != nil {
				return 0, false
			}
			h.Params().SetNoBalance(disable)
			if err := h.ClumpRankMessages(1, 4); err != nil {
				return 0, false
			}
			res := runCustom(h, sspp.Until(sspp.CorrectOutput), sspp.WithScheduler(&st.Sched),
				sspp.MaxInteractions(8*safeSetBudget(n, n/2)), sspp.PollEvery(uint64(n/2)), sspp.Confirm(1))
			return float64(res.StabilizedAt), res.Stabilized
		})
		if len(times) == 0 {
			t.Append(name, itoa(n), "-", "-", itoa(misses))
			continue
		}
		s := stats.Summarize(times)
		t.Append(name, itoa(n), fmtU(uint64(s.Mean)), fmtU(uint64(s.P90)), itoa(misses))
	}
	return t
}
