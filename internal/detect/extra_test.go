package detect

import (
	"slices"
	"strings"
	"testing"

	"sspp/internal/rng"
)

func TestCloneIsDeep(t *testing.T) {
	p := NewParams(8, 4)
	s := InitState(p, 1)
	c := s.Clone()
	c.Msgs[0][0].content = 99
	c.Obs[0] = 99
	c.Signature = 7
	if s.Msgs[0][0].content == 99 || s.Obs[0] == 99 || s.Signature == 7 {
		t.Fatal("Clone shares memory with the original")
	}
}

// TestAppendKeyCanonicalUnderArrivalOrder checks that a key depends only on
// each row's message multiset. Clumping rank 1's messages onto the rank-2
// agent of two harnesses that list the group's agents in different orders
// appends the same blocks in different orders; the keys must still agree.
// A tampered content must change the key.
func TestAppendKeyCanonicalUnderArrivalOrder(t *testing.T) {
	orders := [][]int32{{1, 2, 3, 4, 5, 6, 7, 8}, {1, 4, 3, 2, 5, 6, 7, 8}}
	var keys []string
	var holders []*State
	for _, ranks := range orders {
		h, err := NewHarness(8, 4, ranks, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		holder := slices.Index(ranks, 2)
		if err := h.ClumpRankMessages(1, holder); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, string(h.State(holder).AppendKey(nil)))
		holders = append(holders, h.State(holder))
	}
	if keys[0] != keys[1] {
		t.Fatal("keys differ for the same multiset that arrived in two orders")
	}
	if !TamperForeignMessage(NewParams(8, 4), 2, holders[1]) {
		t.Fatal("no foreign message to tamper")
	}
	if keys[0] == string(holders[1].AppendKey(nil)) {
		t.Fatal("keys collide for different contents")
	}
}

func TestAppendKeyErrState(t *testing.T) {
	s := &State{Err: true}
	if got := s.AppendKey(nil); len(got) != 1 || got[0] != 0xFF {
		t.Fatalf("error key = %v", got)
	}
}

func TestSetSigSpaceOverride(t *testing.T) {
	p := NewParams(8, 4)
	if p.sigSpace(4) != SigSpace(4) {
		t.Fatal("default sig space should match SigSpace")
	}
	p.SetSigSpace(1) // clamps to 2
	if p.sigSpace(4) != 2 {
		t.Fatalf("override = %d, want 2", p.sigSpace(4))
	}
}

func TestCheckCoherenceBranches(t *testing.T) {
	p := NewParams(8, 4)
	mk := func(rank int32) *State { return InitState(p, rank) }

	t.Run("length-mismatch", func(t *testing.T) {
		if err := CheckCoherence(p, []int32{1}, nil); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("clean", func(t *testing.T) {
		ranks := []int32{1, 2, 3, 4}
		states := []*State{mk(1), mk(2), mk(3), mk(4)}
		if err := CheckCoherence(p, ranks, states); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("top-state", func(t *testing.T) {
		states := []*State{mk(1), {Err: true}}
		if err := CheckCoherence(p, []int32{1, 2}, states); err == nil {
			t.Fatal("⊤ must be incoherent")
		}
	})
	t.Run("two-holders", func(t *testing.T) {
		s1, s2 := mk(1), mk(2)
		if !DuplicateMessageInto(p, 1, s1, 2, s2) {
			t.Fatal("setup failed")
		}
		err := CheckCoherence(p, []int32{1, 2}, []*State{s1, s2})
		if err == nil || !strings.Contains(err.Error(), "two holders") {
			t.Fatalf("want two-holders error, got %v", err)
		}
	})
	t.Run("content-mismatch", func(t *testing.T) {
		s1, s2 := mk(1), mk(2)
		if !TamperForeignMessage(p, 2, s2) {
			t.Fatal("setup failed")
		}
		err := CheckCoherence(p, []int32{1, 2}, []*State{s1, s2})
		if err == nil || !strings.Contains(err.Error(), "governor observation") {
			t.Fatalf("want content-mismatch error, got %v", err)
		}
	})
	t.Run("absent-governor-skipped", func(t *testing.T) {
		// A corrupted message whose governor is outside the bucket must not
		// fail coherence (cross-generation case).
		s2 := mk(2)
		if !TamperForeignMessage(p, 2, s2) {
			t.Fatal("setup failed")
		}
		if err := CheckCoherence(p, []int32{2}, []*State{s2}); err != nil {
			t.Fatalf("absent governor should be skipped: %v", err)
		}
	})
}

func TestClumpRankMessages(t *testing.T) {
	h, err := NewHarness(8, 8, nil, rng.New(1)) // one group of 8
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ClumpRankMessages(1, 0); err == nil {
		t.Fatal("clumping onto the rank's own agent must fail")
	}
	if err := h.ClumpRankMessages(1, 3); err != nil {
		t.Fatal(err)
	}
	idx := h.Params().Partition().RankIdx(1)
	g := 8
	if got := len(h.State(3).Msgs[idx]); got != 2*g*g {
		t.Fatalf("holder has %d rank-1 messages, want %d", got, 2*g*g)
	}
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue
		}
		if len(h.State(i).Msgs[idx]) != 0 {
			t.Fatalf("agent %d still holds rank-1 messages", i)
		}
	}
	// The multiset is preserved: conservation still holds.
	if err := h.CheckMessageConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestClumpRankMessagesCrossGroup(t *testing.T) {
	h, err := NewHarness(8, 2, nil, rng.New(1)) // 4 groups of 2
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ClumpRankMessages(1, 7); err == nil {
		t.Fatal("cross-group clumping must fail")
	}
}

func TestTamperForeignMessageSingletonGroup(t *testing.T) {
	// r = 1: singleton groups have no foreign rows, so tampering must fail.
	p := NewParams(4, 1)
	s := InitState(p, 2)
	if TamperForeignMessage(p, 2, s) {
		t.Fatal("tampering succeeded in a singleton group")
	}
}

func TestDuplicateMessageIntoCrossGroup(t *testing.T) {
	p := NewParams(8, 2)
	s1, s2 := InitState(p, 1), InitState(p, 8)
	if DuplicateMessageInto(p, 1, s1, 8, s2) {
		t.Fatal("cross-group duplication must fail")
	}
}

func TestNoBalanceKeepsHolders(t *testing.T) {
	p := NewParamsWithRefresh(4, 4, 8)
	p.SetNoBalance(true)
	u, v := InitState(p, 1), InitState(p, 2)
	uBefore := append([]msg(nil), u.Msgs[0]...)
	sc := NewScratch()
	sample := func(int) int { return 0 }
	Interact(p, 1, u, 2, v, sample, sample, sc)
	if len(u.Msgs[0]) != len(uBefore) {
		t.Fatal("noBalance moved messages")
	}
	for i := range uBefore {
		if u.Msgs[0][i].id != uBefore[i].id {
			t.Fatal("noBalance permuted message IDs across agents")
		}
	}
}
