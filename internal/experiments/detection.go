// detection.go implements the collision-detection experiments: detection
// latency under duplicate ranks (T7) and soundness under correct rankings
// (T8) — the two halves of Lemma E.1.

package experiments

import (
	"math"

	"sspp"
	"sspp/internal/detect"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/stats"
	"sspp/internal/trials"
)

// T7DetectionLatency validates Lemma E.1(b): from a configuration with a
// duplicated rank, DetectCollision_r raises ⊤ within O((n²/r)·log n)
// interactions, for every initialization of the detection layer.
func T7DetectionLatency(cfg Config) *Table {
	t := &Table{
		ID:    "T7",
		Title: "DetectCollision_r: latency to ⊤ with one duplicated rank",
		Claim: "Lemma E.1(b): ⊤ within O((n²/r)·log n) interactions w.h.p.; " +
			"the bound holds, but at these sizes the mean falls far slower than 1/r, so norm grows with r",
		Header: []string{"n", "r", "mean interactions", "p90", "norm (n²/r·ln n)", "misses"},
	}
	ns := []int{32}
	if !cfg.Quick {
		ns = []int{32, 64}
	}
	for _, n := range ns {
		for _, r := range []int{2, 4, 8, 16} {
			if r > n/2 {
				continue
			}
			times, misses := seedTimes(cfg, 2*cfg.seeds(), func(st trials.Streams) (float64, bool) {
				ranks := make([]int32, n)
				for i := range ranks {
					ranks[i] = int32(i + 1)
				}
				ranks[1] = 1 // duplicate inside the first group
				h, err := detect.NewHarness(n, r, ranks, rng.New(st.ProtoSeed))
				if err != nil {
					return 0, false
				}
				res := runCustom(h, sspp.Until(sspp.CorrectOutput), sspp.WithScheduler(&st.Sched),
					sspp.MaxInteractions(safeSetBudget(n, r)), sspp.PollEvery(uint64(n/2)), sspp.Confirm(1))
				return float64(res.StabilizedAt), res.Stabilized
			})
			if len(times) == 0 {
				t.Append(itoa(n), itoa(r), "-", "-", "-", itoa(misses))
				continue
			}
			s := stats.Summarize(times)
			norm := s.Mean / (float64(n*n) / float64(r) * math.Log(float64(n)))
			t.Append(itoa(n), itoa(r), fmtU(uint64(s.Mean)), fmtU(uint64(s.P90)),
				fmtF(norm, 3), itoa(misses))
		}
	}
	t.Note("duplicate placed inside one group; detection requires in-group interactions, " +
		"yet the mean moves far less with r than the (n²/r)·ln n bound, which these sizes leave loose")
	return t
}

// T8Soundness validates Lemma E.1(a): from the clean initialization on a
// correct ranking, no ⊤ is ever raised. The table reports total interactions
// simulated and the number of false positives (which must be zero), plus the
// preserved invariants.
func T8Soundness(cfg Config) *Table {
	t := &Table{
		ID:     "T8",
		Title:  "DetectCollision_r: soundness on correct rankings",
		Claim:  "Lemma E.1(a): zero false ⊤ from q0,DC on a correct ranking, ever",
		Header: []string{"n", "r", "interactions simulated", "false ⊤", "conservation", "restriction"},
	}
	cases := []struct{ n, r int }{{16, 2}, {16, 8}, {32, 8}}
	if !cfg.Quick {
		cases = append(cases, []struct{ n, r int }{{32, 16}, {64, 8}}...)
	}
	perSeed := uint64(60_000)
	type outcome struct {
		ran                       bool
		tops                      int
		conservation, restriction string
	}
	for _, c := range cases {
		results := seedTrials(cfg, cfg.seeds(), func(st trials.Streams) outcome {
			h, err := detect.NewHarness(c.n, c.r, nil, rng.New(st.ProtoSeed))
			if err != nil {
				return outcome{}
			}
			sim.Steps(h, &st.Sched, perSeed)
			out := outcome{ran: true, tops: h.TopCount()}
			if err := h.CheckMessageConservation(); err != nil {
				out.conservation = err.Error()
			}
			if err := h.CheckRestriction(); err != nil {
				out.restriction = err.Error()
			}
			return out
		})
		var total uint64
		falseTops := 0
		conservation, restriction := "ok", "ok"
		for _, o := range results {
			if !o.ran {
				continue
			}
			total += perSeed
			falseTops += o.tops
			if o.conservation != "" {
				conservation = o.conservation
			}
			if o.restriction != "" {
				restriction = o.restriction
			}
		}
		t.Append(itoa(c.n), itoa(c.r), fmtU(total), itoa(falseTops), conservation, restriction)
	}
	return t
}
