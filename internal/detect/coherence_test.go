package detect

import (
	"slices"
	"testing"

	"sspp/internal/rng"
)

// cleanPopulation returns the identity-ranked clean states for (n, r).
func cleanPopulation(t *testing.T, n, r int) (*Params, []int32, []*State) {
	t.Helper()
	p := NewParams(n, r)
	ranks := make([]int32, n)
	states := make([]*State, n)
	for i := range ranks {
		ranks[i] = int32(i + 1)
		states[i] = InitState(p, ranks[i])
	}
	return p, ranks, states
}

// TestCoherentMatchesCheckCoherence pins the allocation-free Coherent to the
// error-reporting CheckCoherence on clean, tampered, duplicated and
// row-spilling states.
func TestCoherentMatchesCheckCoherence(t *testing.T) {
	const n, r = 8, 4
	check := func(name string, p *Params, ranks []int32, states []*State, sc *CohScratch) {
		t.Helper()
		want := CheckCoherence(p, ranks, states) == nil
		if got := Coherent(p, ranks, states, sc); got != want {
			t.Fatalf("%s: Coherent = %v, CheckCoherence agrees = %v", name, got, want)
		}
	}
	sc := NewCohScratch()
	p, ranks, states := cleanPopulation(t, n, r)
	check("clean", p, ranks, states, sc)
	if !TamperForeignMessage(p, ranks[0], states[0]) {
		t.Fatal("no foreign message to tamper")
	}
	check("tampered", p, ranks, states, sc)

	p2, ranks2, states2 := cleanPopulation(t, n, r)
	if !DuplicateMessageInto(p2, ranks2[0], states2[0], ranks2[1], states2[1]) {
		t.Fatal("no message to duplicate")
	}
	check("duplicated", p2, ranks2, states2, sc)

	// A seeded batch over one reused scratch: states that ran dynamics, then
	// took random tampering, duplication and row spills (len(Msgs) > g, so
	// a row governs a rank of the next group), polled over random
	// subpopulations. Spills stay off the last group so every governing
	// rank lies in [1, n], where the two checks are specified to agree.
	const bn, br = 12, 4
	src := rng.New(21)
	verdicts := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		h, err := NewHarness(bn, br, nil, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		for k := src.Intn(400); k > 0; k-- {
			a, b := src.Pair(bn)
			h.Interact(a, b)
		}
		p := h.Params()
		ranks := make([]int32, bn)
		states := make([]*State, bn)
		for i := range states {
			ranks[i], states[i] = h.Rank(i), h.State(i).Clone()
		}
		for m := src.Intn(4); m > 0; m-- {
			i := src.Intn(bn)
			switch src.Intn(3) {
			case 0:
				TamperForeignMessage(p, ranks[i], states[i])
			case 1:
				j := src.Intn(bn)
				DuplicateMessageInto(p, ranks[j], states[j], ranks[i], states[i])
			case 2:
				last := p.pt.Group(ranks[i]) == int32(p.pt.NumGroups()-1)
				if row := states[i].Msgs[src.Intn(len(states[i].Msgs))]; !last {
					states[i].Msgs = append(states[i].Msgs, slices.Clone(row))
				}
			}
		}
		var subRanks []int32
		var subStates []*State
		for i := range states {
			if src.Intn(3) > 0 {
				subRanks = append(subRanks, ranks[i])
				subStates = append(subStates, states[i])
			}
		}
		check("batch", p, subRanks, subStates, sc)
		verdicts[Coherent(p, subRanks, subStates, sc)]++
	}
	if verdicts[true] < 20 || verdicts[false] < 20 {
		t.Fatalf("batch verdicts %v: want at least 20 of each", verdicts)
	}
}

// TestCohScratchAcrossParams reuses one scratch across two Params with the
// same rank-space size but different partitions: the layout must be rebuilt,
// not silently reused.
func TestCohScratchAcrossParams(t *testing.T) {
	sc := NewCohScratch()
	for _, r := range []int{4, 2, 4} {
		p, ranks, states := cleanPopulation(t, 8, r)
		if !Coherent(p, ranks, states, sc) {
			t.Fatalf("clean population at r=%d judged incoherent with a reused scratch", r)
		}
	}
}

// TestCoherentAgentInTop checks that an agent in ⊤ makes the subpopulation
// incoherent.
func TestCoherentAgentInTop(t *testing.T) {
	p, ranks, states := cleanPopulation(t, 8, 4)
	states[2].Err = true
	if Coherent(p, ranks, states, NewCohScratch()) {
		t.Fatal("population with a ⊤ agent judged coherent")
	}
}

// TestCoherentRepeatedPollsNoAlloc pins the zero-allocation property of the
// steady-state poll.
func TestCoherentRepeatedPollsNoAlloc(t *testing.T) {
	p, ranks, states := cleanPopulation(t, 16, 8)
	sc := NewCohScratch()
	if !Coherent(p, ranks, states, sc) {
		t.Fatal("clean population judged incoherent")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if !Coherent(p, ranks, states, sc) {
			t.Fatal("clean population judged incoherent")
		}
	})
	if allocs != 0 {
		t.Fatalf("Coherent allocated %.1f times per poll, want 0", allocs)
	}
}

// TestCoherentAfterInteractions runs the harness and checks the clean
// population stays coherent under protocol dynamics (restamp + balance).
func TestCoherentAfterInteractions(t *testing.T) {
	const n, r = 8, 4
	h, err := NewHarness(n, r, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sched := rng.New(2)
	sc := NewCohScratch()
	for step := 0; step < 50; step++ {
		for k := 0; k < 100; k++ {
			a, b := sched.Pair(n)
			h.Interact(a, b)
		}
		ranks := make([]int32, n)
		states := make([]*State, n)
		for i := 0; i < n; i++ {
			ranks[i] = h.Rank(i)
			states[i] = h.State(i)
		}
		if !Coherent(h.Params(), ranks, states, sc) {
			t.Fatalf("step %d: clean run became incoherent", step)
		}
	}
}
