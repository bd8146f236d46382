// observed.go implements experiment T15: the empirical complement to the
// state-complexity table T2. Theorem 1.1 prices the protocol's speed in a
// 2^O(r²·log n) state space; this experiment counts how many *distinct*
// agent states one execution actually visits. The gap — a few thousand
// states observed against thousands of bits of capacity — illustrates what
// the state space buys: not states that are ever simultaneously live, but
// addressability (unique message IDs, signatures, timers) that makes
// collisions detectable.

package experiments

import (
	"math"

	"sspp/internal/adversary"
	"sspp/internal/core"
)

// T15ObservedStates counts distinct full agent states over complete
// stabilization runs, per (n, r), against the Figure 1 capacity.
func T15ObservedStates(cfg Config) *Table {
	t := &Table{
		ID:    "T15",
		Title: "observed state-space usage over a full stabilization run",
		Claim: "the 2^O(r²·log n) capacity (Thm 1.1) is addressability, not occupancy: " +
			"a run visits a vanishing fraction of it",
		Header: []string{"n", "r", "interactions", "distinct agent states", "log₂(distinct)", "capacity bits (Fig.1)"},
	}
	cases := []struct{ n, r int }{{16, 2}, {16, 4}, {16, 8}}
	if !cfg.Quick {
		cases = append(cases, []struct{ n, r int }{{32, 4}, {32, 8}}...)
	}
	for _, c := range cases {
		st := firstTrial(cfg)
		p, err := core.New(c.n, c.r, core.WithSeed(st.ProtoSeed))
		if err != nil {
			continue
		}
		if err := adversary.Apply(p, adversary.ClassTriggered, &st.Adv); err != nil {
			continue
		}
		distinct := make(map[string]struct{}, 1<<16)
		var buf []byte
		record := func(i int) {
			buf = p.AgentKey(i, buf[:0])
			distinct[string(buf)] = struct{}{}
		}
		for i := 0; i < c.n; i++ {
			record(i)
		}
		sched := &st.Sched
		budget := safeSetBudget(c.n, c.r)
		var took uint64
		for took < budget {
			a, b := sched.Pair(c.n)
			p.Interact(a, b)
			record(a)
			record(b)
			took++
			if took%uint64(c.n) == 0 && p.InSafeSet() {
				break
			}
		}
		bits := core.ElectLeaderBits(float64(c.n), float64(c.r))
		t.Append(itoa(c.n), itoa(c.r), fmtU(took), fmtU(uint64(len(distinct))),
			fmtF(math.Log2(float64(len(distinct))), 1), fmtU(uint64(bits)))
	}
	t.Note("every timer tick, message move and signature refresh counts as a new state, " +
		"so 'distinct states' exceeds interactions÷n but stays astronomically below capacity")
	return t
}
