package detect

import (
	"bytes"
	"slices"
	"testing"

	"sspp/internal/rng"
)

// sortedRow returns a random (content, id)-sorted row of k messages with
// contents from [1, contents] and IDs from [1, ids]; repeated messages are
// allowed, as in adversarial states.
func sortedRow(src *rng.PRNG, k, contents, ids int) []msg {
	row := make([]msg, k)
	for i := range row {
		row[i] = msg{id: int32(src.Intn(ids)) + 1, content: int32(src.Intn(contents)) + 1}
	}
	sortMsgs(row)
	return row
}

// TestMergeRowsMatchesSort pins mergeRows to "concatenate, then sortMsgs"
// on random sorted rows. Unsorted rows cannot reach mergeRows: every row
// producer keeps the row invariant (TestRowsStaySorted).
func TestMergeRowsMatchesSort(t *testing.T) {
	src := rng.New(11)
	sc := NewScratch()
	check := func(name string, u, v []msg) {
		t.Helper()
		want := slices.Concat(u, v)
		sortMsgs(want)
		uBefore, vBefore := slices.Clone(u), slices.Clone(v)
		mergeRows(sc, u, v)
		if !slices.Equal(sc.merged, want) {
			t.Fatalf("%s: mergeRows(%v, %v) = %v, want %v", name, u, v, sc.merged, want)
		}
		if !slices.Equal(u, uBefore) || !slices.Equal(v, vBefore) {
			t.Fatalf("%s: mergeRows modified its input rows", name)
		}
	}
	for trial := 0; trial < 300; trial++ {
		contents := 1 + src.Intn(4)
		u := sortedRow(src, src.Intn(12), contents, 40)
		v := sortedRow(src, src.Intn(12), contents, 40)
		check("sorted", u, v)
	}
}

// TestSlabRowGrowthKeepsNeighbour grows row 0 of a fresh slab-backed state
// past 2g through balanceLoad, exchanging that row alone: the 3-index slab
// subslice must make the row reallocate, leaving row 1 (the next 2g messages
// of the slab) byte-identical.
func TestSlabRowGrowthKeepsNeighbour(t *testing.T) {
	p := NewParams(16, 4) // groups of 4
	const g = 4
	u := InitState(p, 1) // position 1: IDs 1..2g in every row
	row1 := slices.Clone(u.Msgs[1])
	// v carries 2g+2 messages of rank 1's space from other blocks, so the
	// union is one content run of 4g+2 messages and u, at equal counts,
	// takes the ceil half: 2g+1 messages.
	var extra []msg
	for id := int32(2*g + 1); id <= 4*g+2; id++ {
		extra = append(extra, msg{id: id, content: 1})
	}
	v := &State{Msgs: [][]msg{extra}}
	balanceLoad(1, u, v, NewScratch()) // exchange row 0 only
	if got := len(v.Msgs[0]); got != 2*g+1 {
		t.Fatalf("v holds %d messages after the exchange, want %d", got, 2*g+1)
	}
	if got := len(u.Msgs[0]); got != 2*g+1 {
		t.Fatalf("row 0 holds %d messages after the exchange, want %d", got, 2*g+1)
	}
	if !slices.Equal(u.Msgs[1], row1) {
		t.Fatalf("row 1 changed when row 0 grew past 2g: %v, want %v", u.Msgs[1], row1)
	}
}

// TestReinitIntoRecycledMatchesFresh checks that ReinitInto on a recycled
// state — one that ran dynamics, one of another group size, one with
// spilled rows — encodes exactly like a fresh InitState, for every rank of
// an (n, r) = (16, 4) partition.
func TestReinitIntoRecycledMatchesFresh(t *testing.T) {
	const n, r = 16, 4
	h, err := NewHarness(n, r, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sched := rng.New(4)
	for k := 0; k < 2000; k++ {
		a, b := sched.Pair(n)
		h.Interact(a, b)
	}
	var used []*State
	for i := 0; i < n; i++ {
		used = append(used, h.State(i))
	}
	used = append(used, InitState(NewParams(16, 8), 3), InitState(NewParams(16, 2), 1))
	spilled := InitState(h.Params(), 5)
	spilled.Msgs = append(spilled.Msgs, slices.Clone(spilled.Msgs[0]))
	used = append(used, spilled)

	p := h.Params()
	for rank := int32(1); rank <= n; rank++ {
		want := InitState(p, rank).AppendKey(nil)
		for k, s := range used {
			got := ReinitInto(p, rank, s.Clone()).AppendKey(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("rank %d: ReinitInto over recycled state %d encodes differently from InitState", rank, k)
			}
		}
	}
}
