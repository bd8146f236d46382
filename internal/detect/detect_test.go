package detect

import (
	"testing"

	"sspp/internal/rng"
)

func TestSigSpace(t *testing.T) {
	if SigSpace(1) != 2 {
		t.Fatalf("SigSpace(1) = %d, want clamp to 2", SigSpace(1))
	}
	if SigSpace(4) != 1024 {
		t.Fatalf("SigSpace(4) = %d, want 4^5", SigSpace(4))
	}
	if SigSpace(1000) != maxSigSpace {
		t.Fatalf("SigSpace(1000) = %d, want cap", SigSpace(1000))
	}
}

func TestInitState(t *testing.T) {
	p := NewParams(8, 4) // groups of size 4
	s := InitState(p, 2) // rank 2: group 0, position 2
	g := int32(4)
	if len(s.Msgs) != int(g) || len(s.Obs) != int(2*g*g) {
		t.Fatalf("dimensions: %d rows, %d obs", len(s.Msgs), len(s.Obs))
	}
	if s.Signature != 1 || s.Counter != 1 || s.Err {
		t.Fatalf("initial scalars: %+v", s)
	}
	for _, o := range s.Obs {
		if o != 1 {
			t.Fatal("observations must start at 1")
		}
	}
	// Position 2 holds IDs {2g+1 .. 4g} = {9..16} of every rank in group.
	for row, msgs := range s.Msgs {
		if len(msgs) != int(2*g) {
			t.Fatalf("row %d has %d messages, want %d", row, len(msgs), 2*g)
		}
		for k, m := range msgs {
			if want := int32(9 + k); m.id != want {
				t.Fatalf("row %d msg %d id = %d, want %d", row, k, m.id, want)
			}
			if m.content != 1 {
				t.Fatal("initial content must be 1")
			}
		}
	}
	if s.MessageCount() != int(2*g*g) {
		t.Fatalf("MessageCount = %d, want %d", s.MessageCount(), 2*g*g)
	}
}

func TestInitStateInvalidRank(t *testing.T) {
	p := NewParams(8, 4)
	if s := InitState(p, 0); !s.Err {
		t.Fatal("invalid rank must yield error state")
	}
}

func TestInitialConservation(t *testing.T) {
	// All agents of a group jointly hold each (rank, ID) exactly once.
	h, err := NewHarness(12, 4, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMessageConservation(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckRestriction(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossGroupInteractionIsNoop(t *testing.T) {
	h, err := NewHarness(8, 2, nil, rng.New(2)) // 4 groups of 2
	if err != nil {
		t.Fatal(err)
	}
	before := h.State(0).MessageCount()
	h.Interact(0, 7) // ranks 1 and 8: different groups
	if h.State(0).MessageCount() != before || h.AnyTop() {
		t.Fatal("cross-group interaction must be a no-op")
	}
	if h.State(0).Counter != 1 {
		t.Fatal("cross-group interaction must not tick the refresh counter")
	}
}

func TestDirectRankCollision(t *testing.T) {
	ranks := []int32{1, 1, 3, 4, 5, 6, 7, 8} // agents 0 and 1 collide
	h, err := NewHarness(8, 4, ranks, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	h.Interact(0, 1)
	if !h.State(0).Err || !h.State(1).Err {
		t.Fatal("same-rank interaction must raise ⊤ at both agents")
	}
	if h.TopCount() != 2 {
		t.Fatalf("TopCount = %d, want 2", h.TopCount())
	}
}

func TestErrIsAbsorbing(t *testing.T) {
	ranks := []int32{1, 1, 3, 4}
	h, err := NewHarness(4, 2, ranks, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	h.Interact(0, 1)
	h.Interact(0, 2) // errored agent interacting further
	if !h.State(0).Err {
		t.Fatal("⊤ must be absorbing")
	}
	if h.State(2).Err {
		t.Fatal("⊤ must not spread inside DetectCollision (the wrapper handles it)")
	}
}

func TestDuplicateCirculatingMessage(t *testing.T) {
	h, err := NewHarness(8, 4, nil, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Copy a message from agent 0 (rank 1) into agent 1 (rank 2): both in
	// group 0. The duplicate check must fire when they meet.
	if !DuplicateMessageInto(h.Params(), h.Rank(0), h.State(0), h.Rank(1), h.State(1)) {
		t.Fatal("duplication failed")
	}
	h.Interact(0, 1)
	if !h.AnyTop() {
		t.Fatal("duplicate circulating message not detected on direct meeting")
	}
}

// TestSoundness is Lemma E.1(a): from a correct initialization on a correct
// ranking, no ⊤ is ever generated; message conservation and the state
// restriction hold throughout.
func TestSoundness(t *testing.T) {
	cases := []struct{ n, r int }{{16, 1}, {16, 4}, {16, 8}, {24, 6}}
	for _, c := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			h, err := NewHarness(c.n, c.r, nil, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed + 100)
			for i := 0; i < 40_000; i++ {
				a, b := r.Pair(c.n)
				h.Interact(a, b)
				if h.AnyTop() {
					t.Fatalf("n=%d r=%d seed=%d: false ⊤ at interaction %d", c.n, c.r, seed, i)
				}
			}
			if err := h.CheckMessageConservation(); err != nil {
				t.Fatalf("n=%d r=%d seed=%d: %v", c.n, c.r, seed, err)
			}
			if err := h.CheckRestriction(); err != nil {
				t.Fatalf("n=%d r=%d seed=%d: %v", c.n, c.r, seed, err)
			}
		}
	}
}

// TestCompletenessTamperedMessage: a single corrupted circulating message
// (with a correct ranking) is eventually detected — the slow path that
// motivates the soft-reset mechanism (§3.1 end, §3.2).
func TestCompletenessTamperedMessage(t *testing.T) {
	const n = 12
	for seed := uint64(0); seed < 3; seed++ {
		h, err := NewHarness(n, 6, nil, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !h.TamperForeignMessage(2) {
			t.Fatal("tamper failed")
		}
		if err := h.CheckRestriction(); err != nil {
			t.Fatalf("tamper broke the state restriction: %v", err)
		}
		r := rng.New(seed + 9)
		detected := false
		for i := 0; i < 4_000_000; i++ {
			a, b := r.Pair(n)
			h.Interact(a, b)
			if h.AnyTop() {
				detected = true
				break
			}
		}
		if !detected {
			t.Fatalf("seed %d: tampered message never detected", seed)
		}
	}
}

// TestSignatureRefresh: after enough same-group interactions the signature
// is resampled away from its initial value and the agent's own messages and
// observations follow it.
func TestSignatureRefresh(t *testing.T) {
	h, err := NewHarness(4, 2, nil, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	changed := false
	for i := 0; i < 5000; i++ {
		a, b := r.Pair(4)
		h.Interact(a, b)
		if h.State(0).Signature != 1 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("signature never refreshed")
	}
	if h.AnyTop() {
		t.Fatal("refresh must not raise ⊤ on unique ranks")
	}
	if err := h.CheckRestriction(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBalanceSpreads: starting from the clean block assignment, after
// O(g·log g) same-group interactions every agent holds messages of every
// rank in its group at roughly even counts.
func TestLoadBalanceSpreads(t *testing.T) {
	const n = 8
	h, err := NewHarness(n, 8, nil, rng.New(9)) // one group of 8
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	for i := 0; i < 20_000; i++ {
		a, b := r.Pair(n)
		h.Interact(a, b)
	}
	if h.AnyTop() {
		t.Fatal("unexpected ⊤")
	}
	g := 8
	per := 2 * g * g // average messages per agent
	for i := 0; i < n; i++ {
		c := h.State(i).MessageCount()
		if c < per/2 || c > per*2 {
			t.Errorf("agent %d holds %d messages, want within [%d, %d]", i, c, per/2, per*2)
		}
	}
	if err := h.CheckMessageConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckStateRestrictionDetectsViolation(t *testing.T) {
	p := NewParams(4, 2)
	s := InitState(p, 1)
	// Corrupt an own-rank message without touching observations.
	s.Msgs[0][0].content = 999
	if err := CheckStateRestriction(p, 1, s); err == nil {
		t.Fatal("restriction violation not detected")
	}
}

func TestNewHarnessValidation(t *testing.T) {
	if _, err := NewHarness(1, 1, nil, rng.New(1)); err == nil {
		t.Fatal("n < 2 must fail")
	}
	if _, err := NewHarness(4, 2, []int32{1, 2}, rng.New(1)); err == nil {
		t.Fatal("rank length mismatch must fail")
	}
	if _, err := NewHarness(4, 2, []int32{1, 2, 3, 9}, rng.New(1)); err == nil {
		t.Fatal("out-of-range rank must fail")
	}
}

func TestRefreshPeriod(t *testing.T) {
	p := NewParams(64, 8)
	if p.RefreshPeriod(8) < 2 {
		t.Fatal("refresh period too small")
	}
	pc := NewParamsWithRefresh(64, 8, 0)
	if pc.csig != 1 {
		t.Fatalf("csig = %d, want clamp to 1", pc.csig)
	}
}
