// churn_test.go unit-tests the agent-level Churnable surface of the
// baselines: class-chosen join states, seeded swap-remove leaves (with
// CIW's stranded-rank clamp), and the error paths the engine relies on to
// fail fast.

package baseline

import (
	"testing"

	"sspp/internal/adversary"
	"sspp/internal/rng"
)

func TestCIWChurnSurface(t *testing.T) {
	c := NewCIWFromRanks([]int32{1, 2, 3, 4})
	if k := c.StateKey(2); k != 3 {
		t.Fatalf("StateKey(2) = %d, want the rank 3", k)
	}
	if minN, maxN := c.ChurnBounds(); minN != 2 || maxN != 0 {
		t.Fatalf("bounds (%d, %d), want (2, 0)", minN, maxN)
	}
	src := rng.New(3)
	for _, class := range []string{"", string(adversary.ClassCleanRankers)} {
		if err := c.Join(class, src); err != nil {
			t.Fatal(err)
		}
		if r := c.RankOutput(c.N() - 1); r != 1 {
			t.Fatalf("class %q joined with rank %d, want a fresh rank-1 ranker", class, r)
		}
	}
	if err := c.Join(string(adversary.ClassRandomGarbage), src); err != nil {
		t.Fatal(err)
	}
	if r := c.RankOutput(c.N() - 1); r < 1 || int(r) > c.N() {
		t.Fatalf("random-garbage join rank %d outside [1, %d]", r, c.N())
	}
	if err := c.Join(string(adversary.ClassDuplicateRanks), src); err != nil {
		t.Fatal(err)
	}
	i, dup := c.N()-1, false
	for j := 0; j < i; j++ {
		if c.RankOutput(j) == c.RankOutput(i) {
			dup = true
		}
	}
	if !dup {
		t.Fatalf("duplicate-ranks join rank %d duplicates nobody", c.RankOutput(i))
	}
	if err := c.Join("bogus", src); err == nil {
		t.Fatal("unrealizable join class accepted")
	}
}

// leaveVictim returns the agent index Leave will draw from src for a
// population of n, reading a copy so src itself does not advance.
func leaveVictim(src *rng.PRNG, n int) int {
	probe := *src
	return probe.Intn(n)
}

func TestCIWLeaveClampsStrandedRanks(t *testing.T) {
	c := NewCIWFromRanks([]int32{1, 2, 3, 4})
	// Pick a stream whose victim is not the last agent: the leave then
	// swap-moves rank 4 into the victim's slot, the shrunken space [1, 3]
	// strands it, and the clamp must pull it down to 3.
	src := rng.New(1)
	for leaveVictim(src, 4) == 3 {
		src.Uint64()
	}
	want := []int32{1, 2, 3}
	want[leaveVictim(src, 4)] = 3
	if err := c.Leave(src); err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.RankOutput(0) != want[0] || c.RankOutput(1) != want[1] || c.RankOutput(2) != want[2] {
		t.Fatalf("after the leave: n=%d ranks %d/%d/%d, want 3 and %v", c.N(), c.RankOutput(0), c.RankOutput(1), c.RankOutput(2), want)
	}
	for c.N() > 1 {
		if err := c.Leave(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Leave(src); err == nil {
		t.Fatal("leave emptied the population")
	}
}

func TestLooseLEChurnSurface(t *testing.T) {
	const tau = 8
	l := NewLooseLE(3, tau)
	if minN, maxN := l.ChurnBounds(); minN != 2 || maxN != 0 {
		t.Fatalf("bounds (%d, %d), want (2, 0)", minN, maxN)
	}
	src := rng.New(4)
	cases := []struct {
		class      string
		leader     bool
		timerExact int32 // -1: any value in [0, tau]
	}{
		{"", false, tau},
		{string(adversary.ClassNoLeader), false, 0},
		{string(adversary.ClassTwoLeaders), true, tau},
		{string(adversary.ClassRandomGarbage), false, -1},
	}
	for _, tc := range cases {
		if err := l.Join(tc.class, src); err != nil {
			t.Fatal(err)
		}
		leader, timer := looseState(l.StateKey(l.N() - 1))
		if tc.timerExact >= 0 && (leader != tc.leader || timer != tc.timerExact) {
			t.Fatalf("class %q joined as (%v, %d), want (%v, %d)",
				tc.class, leader, timer, tc.leader, tc.timerExact)
		}
		if timer < 0 || timer > tau {
			t.Fatalf("class %q joined with timer %d outside [0, %d]", tc.class, timer, tau)
		}
	}
	if err := l.Join("bogus", src); err == nil {
		t.Fatal("unrealizable join class accepted")
	}
	// Remove a drawn victim other than the last agent, and check the swap
	// brought the last agent's state into its slot.
	for leaveVictim(src, l.N()) == l.N()-1 {
		src.Uint64()
	}
	victim := leaveVictim(src, l.N())
	wantLeader, wantTimer := looseState(l.StateKey(l.N() - 1))
	if err := l.Leave(src); err != nil {
		t.Fatal(err)
	}
	if leader, timer := looseState(l.StateKey(victim)); leader != wantLeader || timer != wantTimer {
		t.Fatalf("swap-remove left slot %d as (%v, %d), want the moved (%v, %d)",
			victim, leader, timer, wantLeader, wantTimer)
	}
	for l.N() > 1 {
		if err := l.Leave(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Leave(src); err == nil {
		t.Fatal("leave emptied the population")
	}
}
