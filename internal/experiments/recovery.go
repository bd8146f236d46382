// recovery.go implements the recovery experiments: the soft-reset guarantee
// (T9, §3.2) and the full recovery ladder over every adversarial class
// (T10, Lemma 6.3).

package experiments

import (
	"sspp"
	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/sim"
	"sspp/internal/stats"
	"sspp/internal/trials"
)

// preservationOutcome is the result of one ranking-preservation trial (T9
// and the A1 ablation): did the run finish, and did the pre-existing
// ranking survive recovery?
type preservationOutcome struct {
	ran, finished, preserved bool
	took, soft               float64
	hard                     uint64
}

// preservationTrial builds ElectLeader_r (with optional constant overrides),
// applies the adversary class, snapshots the rank outputs, runs to the safe
// set, and reports whether the ranking was preserved. The protocol, the
// adversary and the scheduler each take their role of the trial's streams
// (T9 and A1 share the trial).
func preservationTrial(n, r int, consts *core.Constants, st trials.Streams, class adversary.Class) preservationOutcome {
	ev := sim.NewEvents()
	opts := []core.Option{core.WithSeed(st.ProtoSeed), core.WithEvents(ev)}
	if consts != nil {
		opts = append(opts, core.WithConstants(*consts))
	}
	p, err := core.New(n, r, opts...)
	if err != nil {
		return preservationOutcome{}
	}
	if err := adversary.Apply(p, class, &st.Adv); err != nil {
		return preservationOutcome{} // class unrealizable at this (n, r); skip run
	}
	before := make([]int32, n)
	for i := 0; i < n; i++ {
		before[i] = p.RankOutput(i)
	}
	out := preservationOutcome{ran: true}
	res := runCustom(p, sspp.WithScheduler(&st.Sched), sspp.MaxInteractions(safeSetBudget(n, r)))
	if !res.Stabilized {
		return out
	}
	out.finished = true
	out.took = float64(res.StabilizedAt)
	out.hard = ev.Count(sim.EvHardReset)
	out.soft = float64(ev.Count(sim.EvSoftReset))
	out.preserved = true
	for i := 0; i < n; i++ {
		if p.RankOutput(i) != before[i] {
			out.preserved = false
			break
		}
	}
	return out
}

// T9SoftReset validates §3.2: with a correct ranking and corrupted (or
// duplicated) circulating messages, recovery happens through soft resets
// only — zero hard resets, ranking bit-identical afterwards.
func T9SoftReset(cfg Config) *Table {
	t := &Table{
		ID:     "T9",
		Title:  "soft-reset mechanism: message faults with a correct ranking",
		Claim:  "§3.2: repair via soft resets only; the ranking survives (0 hard resets)",
		Header: []string{"fault", "n", "r", "runs", "hard resets", "soft resets (mean)", "ranking preserved", "safe-set time (mean)"},
	}
	cases := []struct{ n, r int }{{12, 6}, {16, 4}}
	if !cfg.Quick {
		cases = append(cases, struct{ n, r int }{24, 8})
	}
	for _, class := range []adversary.Class{adversary.ClassCorruptMessages, adversary.ClassDuplicateMessages} {
		for _, c := range cases {
			results := seedTrials(cfg, cfg.seeds(), func(st trials.Streams) preservationOutcome {
				return preservationTrial(c.n, c.r, nil, st, class)
			})
			runs, hard := 0, uint64(0)
			preserved := 0
			var soft, times stats.Acc
			for _, o := range results {
				if !o.ran {
					continue
				}
				runs++
				if !o.finished {
					continue
				}
				times.Add(o.took)
				hard += o.hard
				soft.Add(o.soft)
				if o.preserved {
					preserved++
				}
			}
			if runs == 0 {
				t.Append(string(class), itoa(c.n), itoa(c.r), "0", "-", "-", "-", "-")
				continue
			}
			t.Append(string(class), itoa(c.n), itoa(c.r), itoa(runs),
				fmtU(hard), fmtF(soft.Mean(), 1),
				itoa(preserved)+"/"+itoa(runs), fmtU(uint64(times.Mean())))
		}
	}
	return t
}

// T10Recovery walks the recovery ladder of Lemma 6.3: from every adversarial
// class the protocol reaches the safe set, and the table records how long it
// took and how many hard resets were needed. The whole ladder is one public
// Ensemble grid: a single (n, r) point crossed with every adversary class.
func T10Recovery(cfg Config) *Table {
	const n, r = 32, 8
	t := &Table{
		ID:    "T10",
		Title: "recovery ladder: safe-set arrival from every adversarial class",
		Claim: "Lemma 6.3: reset-or-safe within O((n²/r)·log n) from any configuration " +
			"(n=32, r=8)",
		Header: []string{"class", "description", "mean safe-set time", "±95%", "hard resets (mean)", "fails"},
	}
	cells, ok := measureCells(cfg, []sspp.Point{{N: n, R: r}}, sspp.AdversaryClasses())
	if !ok {
		t.Note("grid rejected by the ensemble layer")
		return t
	}
	for _, cell := range cells {
		class := cell.Adversary
		if cell.Recovered == 0 {
			t.Append(string(class), sspp.DescribeAdversary(class), "-", "-", "-", itoa(cell.Failures))
			continue
		}
		t.Append(string(class), sspp.DescribeAdversary(class),
			fmtU(uint64(cell.Interactions.Mean)), fmtU(uint64(cell.Interactions.CI95)),
			fmtF(cell.HardResets.Mean, 1), itoa(cell.Failures))
	}
	t.Note("probation-skew reads 0: a correctly ranked single-generation configuration with " +
		"positive probation timers already satisfies Lemma 6.1 (condition (b) holds vacuously)")
	t.Note("message-layer classes (corrupt/duplicate-messages) recover orders of magnitude " +
		"faster and with 0 hard resets: the soft-reset path of §3.2")
	return t
}
