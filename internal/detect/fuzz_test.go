package detect

import (
	"testing"

	"sspp/internal/rng"
)

// FuzzPartition checks the structural partition invariants for arbitrary
// (n, r): disjoint contiguous cover of [1, n] with consistent accessors.
// Run with `go test -fuzz FuzzPartition ./internal/detect` to explore;
// the seed corpus runs as a normal test.
func FuzzPartition(f *testing.F) {
	f.Add(10, 3)
	f.Add(1, 1)
	f.Add(1000, 999)
	f.Add(7, 7)
	f.Add(64, 1)
	f.Fuzz(func(t *testing.T, n, r int) {
		if n < 1 || n > 5000 {
			t.Skip()
		}
		pt := NewPartition(n, r)
		covered := 0
		for g := int32(0); g < int32(pt.NumGroups()); g++ {
			size := pt.GroupSize(g)
			if size < 1 {
				t.Fatalf("group %d empty", g)
			}
			start := pt.GroupStart(g)
			for k := int32(0); k < size; k++ {
				rank := start + k
				if pt.Group(rank) != g {
					t.Fatalf("rank %d misassigned", rank)
				}
				if pt.PosOf(rank) != k+1 || pt.RankIdx(rank) != k || pt.SizeOf(rank) != size {
					t.Fatalf("accessor mismatch for rank %d", rank)
				}
				covered++
			}
		}
		if covered != n {
			t.Fatalf("covered %d of %d ranks", covered, n)
		}
	})
}

// FuzzInteractSoundness drives random interaction schedules (derived from a
// fuzzed byte string) over a correctly ranked harness and asserts the
// Lemma E.1(a) guarantees: no ⊤, conservation, restriction.
func FuzzInteractSoundness(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(7), []byte{9, 9, 9, 9, 1, 2})
	f.Fuzz(func(t *testing.T, seed uint64, schedule []byte) {
		const n, r = 6, 3
		h, err := NewHarness(n, r, nil, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(schedule) && i < 400; i += 2 {
			a := int(schedule[i]) % n
			b := int(schedule[i+1]) % n
			if a == b {
				b = (b + 1) % n
			}
			h.Interact(a, b)
		}
		if h.AnyTop() {
			t.Fatal("false ⊤ under fuzzed schedule")
		}
		if err := h.CheckMessageConservation(); err != nil {
			t.Fatal(err)
		}
		if err := h.CheckRestriction(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBalanceLoad runs the differential check of
// TestBalanceLoadMatchesReference on rows the fuzzer chooses. shape picks g
// in [1, 4] and how many rows each agent has (0 to g+1, so rows can be
// missing); every two bytes of data place one message: the first picks the
// agent and row, the second the content in [1, 4] and an ID in
// [1, 2g² + 2]. Rows are sorted before use.
func FuzzBalanceLoad(f *testing.F) {
	f.Add(uint8(0x1d), []byte{0, 5, 2, 9, 1, 6, 3, 10})
	f.Add(uint8(0x3f), []byte{0, 4, 0, 8, 1, 4, 1, 12, 2, 1, 3, 2})
	f.Add(uint8(0x02), []byte{})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		g := int32(shape%4) + 1
		states := [2]*State{
			{Msgs: make([][]msg, int(shape/4)%int(g+2))},
			{Msgs: make([][]msg, int(shape/16)%int(g+2))},
		}
		for i := 0; i+1 < len(data) && i < 400; i += 2 {
			s := states[data[i]&1]
			if len(s.Msgs) == 0 {
				continue
			}
			row := int(data[i]>>1) % len(s.Msgs)
			s.Msgs[row] = append(s.Msgs[row], msg{
				id:      1 + int32(data[i+1]>>2)%(2*g*g+2),
				content: 1 + int32(data[i+1]&3),
			})
		}
		for _, s := range states {
			for _, row := range s.Msgs {
				sortMsgs(row)
			}
		}
		checkAgainstReference(t, g, states[0], states[1], NewScratch())
	})
}
