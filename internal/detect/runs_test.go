package detect

import (
	"slices"
	"testing"

	"sspp/internal/rng"
)

// msgsSorted reports whether ms is sorted by (content, id): the row
// invariant of State.Msgs.
func msgsSorted(ms []msg) bool {
	for i := 1; i < len(ms); i++ {
		if msgLess(ms[i], ms[i-1]) {
			return false
		}
	}
	return true
}

// refBalanceLoad is BalanceLoad element by element: each row pair is
// concatenated, sorted with sortMsgs and split by scanning for the end of
// every content run. A missing row's share is dropped.
func refBalanceLoad(g int32, u, v *State) {
	uCount, vCount := 0, 0
	for idx := 0; idx < int(g); idx++ {
		uHas, vHas := idx < len(u.Msgs), idx < len(v.Msgs)
		var union, uOut, vOut []msg
		if uHas {
			union = append(union, u.Msgs[idx]...)
		}
		if vHas {
			union = append(union, v.Msgs[idx]...)
		}
		if len(union) == 0 {
			continue
		}
		sortMsgs(union)
		for lo := 0; lo < len(union); {
			hi := lo + 1
			for hi < len(union) && union[hi].content == union[lo].content {
				hi++
			}
			floorHalf, ceilHalf := union[lo:lo+(hi-lo)/2], union[lo+(hi-lo)/2:hi]
			if uCount > vCount {
				uOut, vOut = append(uOut, floorHalf...), append(vOut, ceilHalf...)
				uCount, vCount = uCount+len(floorHalf), vCount+len(ceilHalf)
			} else {
				vOut, uOut = append(vOut, floorHalf...), append(uOut, ceilHalf...)
				vCount, uCount = vCount+len(floorHalf), uCount+len(ceilHalf)
			}
			lo = hi
		}
		if uHas {
			u.Msgs[idx] = uOut
		}
		if vHas {
			v.Msgs[idx] = vOut
		}
	}
}

// refDuplicate is the duplicate check with a fresh seen array per row pair:
// true when some row idx < g of both agents shares an ID in [1, 2g²].
func refDuplicate(g int32, u, v *State) bool {
	space := 2 * g * g
	for idx := 0; idx < int(g) && idx < len(u.Msgs) && idx < len(v.Msgs); idx++ {
		seen := make([]bool, space)
		for _, m := range u.Msgs[idx] {
			if m.id >= 1 && m.id <= space {
				seen[m.id-1] = true
			}
		}
		for _, m := range v.Msgs[idx] {
			if m.id >= 1 && m.id <= space && seen[m.id-1] {
				return true
			}
		}
	}
	return false
}

// checkAgainstReference runs duplicateMessage and balanceLoad on copies of
// the sorted states u and v and compares them with the element-wise
// references: the same verdict, then the same rows for both agents. Every
// row's split reads the running counts of the rows before it, so equal rows
// mean equal counts. sc is shared across calls, as in a simulation.
func checkAgainstReference(t *testing.T, g int32, u, v *State, sc *Scratch) {
	t.Helper()
	if got, want := duplicateMessage(g, u, v, sc), refDuplicate(g, u, v); got != want {
		t.Fatalf("g=%d: duplicateMessage = %v, reference %v\nu=%v\nv=%v", g, got, want, u.Msgs, v.Msgs)
	}
	gotU, gotV := u.Clone(), v.Clone()
	balanceLoad(g, gotU, gotV, sc)
	wantU, wantV := u.Clone(), v.Clone()
	refBalanceLoad(g, wantU, wantV)
	for _, side := range []struct {
		name      string
		got, want *State
	}{{"u", gotU, wantU}, {"v", gotV, wantV}} {
		if len(side.got.Msgs) != len(side.want.Msgs) {
			t.Fatalf("g=%d: %s has %d rows, reference %d", g, side.name, len(side.got.Msgs), len(side.want.Msgs))
		}
		for idx := range side.got.Msgs {
			if !slices.Equal(side.got.Msgs[idx], side.want.Msgs[idx]) {
				t.Fatalf("g=%d: %s row %d = %v, reference %v\nu=%v\nv=%v",
					g, side.name, idx, side.got.Msgs[idx], side.want.Msgs[idx], u.Msgs, v.Msgs)
			}
		}
	}
}

// TestBalanceLoadMatchesReference compares balanceLoad and duplicateMessage
// with their element-wise references on random sorted rows: 1–4 contents,
// interleaved and disjoint ID ranges, unequal and empty rows, and agents
// missing rows (the spill path). IDs reach past [1, 2g²] on both sides.
func TestBalanceLoadMatchesReference(t *testing.T) {
	src := rng.New(5)
	sc := NewScratch()
	for trial := 0; trial < 5000; trial++ {
		g := int32(1 + src.Intn(4))
		contents := 1 + src.Intn(4)
		space := 2 * g * g
		disjoint := src.Intn(2) == 0
		states := [2]*State{{}, {}}
		for side, s := range states {
			rows := int(g)
			if src.Intn(4) == 0 {
				rows = src.Intn(int(g) + 2) // missing rows, or one past g
			}
			lo, hi := int32(0), space+1 // IDs [lo, hi]
			if disjoint {
				lo, hi = 1+int32(side)*g*g, g*g+int32(side)*g*g
			}
			for range rows {
				row := sortedRow(src, src.Intn(int(3*g)+1), contents, int(hi-lo+1))
				for i := range row {
					row[i].id += lo - 1
				}
				s.Msgs = append(s.Msgs, row)
			}
		}
		checkAgainstReference(t, g, states[0], states[1], sc)
	}
}

// TestRowsStaySorted checks the row invariant the pair work relies on: each
// adversarial mutator leaves every row (content, id)-sorted, and so does
// every interaction of a random schedule from the configuration it made.
func TestRowsStaySorted(t *testing.T) {
	const n, r = 12, 4 // three groups of four
	checkSorted := func(name string, h *Harness) {
		t.Helper()
		for i := 0; i < h.N(); i++ {
			for idx, row := range h.State(i).Msgs {
				if !msgsSorted(row) {
					t.Fatalf("%s: agent %d row %d is not sorted: %v", name, i, idx, row)
				}
			}
		}
	}
	mutators := []struct {
		name   string
		mutate func(h *Harness) bool
	}{
		// Rank 1's blocks land on rank 4's agent after its own, later block.
		{"clumped", func(h *Harness) bool { return h.ClumpRankMessages(1, 3) == nil }},
		// Rank 2's agent holds rank 1's row; its first message gets content 2.
		{"tampered", func(h *Harness) bool { return h.TamperForeignMessage(1) }},
		// Rank 1's message ID 1 joins rank 2's row 0 of IDs 9..16.
		{"duplicated", func(h *Harness) bool {
			return DuplicateMessageInto(h.Params(), 1, h.State(0), 2, h.State(1))
		}},
	}
	for _, m := range mutators {
		for seed := uint64(1); seed <= 3; seed++ {
			h, err := NewHarness(n, r, nil, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !m.mutate(h) {
				t.Fatalf("%s: mutator did nothing", m.name)
			}
			checkSorted(m.name, h)
			sched := rng.New(seed + 10)
			for k := 0; k < 2000; k++ {
				a, b := sched.Pair(n)
				h.Interact(a, b)
				checkSorted(m.name+" then interactions", h)
			}
		}
	}
}

// TestDuplicateVerdictIndependentOfScratch checks that a duplicate verdict
// does not depend on what a shared Scratch marked before. In a population
// with groups of 3 and 2, a g = 3 pass leaves marks on IDs up to 18; a g = 2
// pair is then checked against those marks and against a fresh Scratch.
func TestDuplicateVerdictIndependentOfScratch(t *testing.T) {
	p := NewParams(5, 3) // ranks 1–3 (g = 3) and 4–5 (g = 2)
	// withRow0 is rank's clean state with row 0 replaced by the given IDs.
	withRow0 := func(rank int32, ids ...int32) *State {
		s := InitState(p, rank)
		s.Msgs[0] = s.Msgs[0][:0]
		for _, id := range ids {
			s.Msgs[0] = append(s.Msgs[0], msg{id: id, content: 1})
		}
		return s
	}
	cases := []struct {
		name string
		u, v *State
		want bool
	}{
		{"clean blocks", InitState(p, 4), InitState(p, 5), false},
		{"interleaved, no shared ID", withRow0(4, 1, 3, 5, 7), withRow0(5, 2, 4, 6, 8), false},
		{"shared ID past 2g²", withRow0(4, 1, 2, 9), withRow0(5, 5, 6, 9), false},
		{"shared ID", withRow0(4, 1, 3, 5), withRow0(5, 2, 3, 8), true},
	}
	for _, c := range cases {
		used := NewScratch()
		duplicateMessage(3, InitState(p, 1), InitState(p, 2), used)
		fresh := duplicateMessage(2, c.u, c.v, NewScratch())
		after := duplicateMessage(2, c.u, c.v, used)
		if fresh != c.want || after != c.want {
			t.Errorf("%s: verdict %v on a fresh Scratch, %v after a g = 3 pass; want %v", c.name, fresh, after, c.want)
		}
	}
}
