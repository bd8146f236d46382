// churn_test.go unit-tests the agent-level Churnable surface of the
// baselines: class-chosen join states, swap-remove leaves (with CIW's
// stranded-rank clamp), and the error paths the engine relies on to fail
// fast.

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
		i, err := c.JoinAgent(class, src)
		if err != nil {
			t.Fatal(err)
		}
		if i != c.N()-1 || c.RankOutput(i) != 1 {
			t.Fatalf("class %q joined at %d with rank %d, want a fresh rank-1 ranker", class, i, c.RankOutput(i))
		}
	}
	i, err := c.JoinAgent(string(adversary.ClassRandomGarbage), src)
	if err != nil {
		t.Fatal(err)
	}
	if r := c.RankOutput(i); r < 1 || int(r) > c.N() {
		t.Fatalf("random-garbage join rank %d outside [1, %d]", r, c.N())
	}
	i, err = c.JoinAgent(string(adversary.ClassDuplicateRanks), src)
	if err != nil {
		t.Fatal(err)
	}
	dup := false
	for j := 0; j < i; j++ {
		if c.RankOutput(j) == c.RankOutput(i) {
			dup = true
		}
	}
	if !dup {
		t.Fatalf("duplicate-ranks join rank %d duplicates nobody", c.RankOutput(i))
	}
	if _, err := c.JoinAgent("bogus", src); err == nil {
		t.Fatal("unrealizable join class accepted")
	}
}

func TestCIWLeaveClampsStrandedRanks(t *testing.T) {
	c := NewCIWFromRanks([]int32{1, 2, 3, 4})
	if err := c.LeaveAgent(4); err == nil {
		t.Fatal("out-of-range leave accepted")
	}
	// Removing agent 0 swap-moves rank 4 into slot 0; the shrunken space
	// [1, 3] strands it, so the clamp must pull it down to 3.
	if err := c.LeaveAgent(0); err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.RankOutput(0) != 3 || c.RankOutput(1) != 2 || c.RankOutput(2) != 3 {
		t.Fatalf("after the leave: n=%d ranks %d/%d/%d, want 3 and 3/2/3", c.N(), c.RankOutput(0), c.RankOutput(1), c.RankOutput(2))
	}
	for c.N() > 1 {
		if err := c.LeaveAgent(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.LeaveAgent(0); err == nil {
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
		i, err := l.JoinAgent(tc.class, src)
		if err != nil {
			t.Fatal(err)
		}
		if i != l.N()-1 {
			t.Fatalf("class %q joined at %d, want the last slot %d", tc.class, i, l.N()-1)
		}
		leader, timer := looseState(l.StateKey(i))
		if tc.timerExact >= 0 && (leader != tc.leader || timer != tc.timerExact) {
			t.Fatalf("class %q joined as (%v, %d), want (%v, %d)",
				tc.class, leader, timer, tc.leader, tc.timerExact)
		}
		if timer < 0 || timer > tau {
			t.Fatalf("class %q joined with timer %d outside [0, %d]", tc.class, timer, tau)
		}
	}
	if _, err := l.JoinAgent("bogus", src); err == nil {
		t.Fatal("unrealizable join class accepted")
	}
	if err := l.LeaveAgent(l.N()); err == nil {
		t.Fatal("out-of-range leave accepted")
	}
	// Remove slot 0 and check the swap brought the last agent's state along.
	wantLeader, wantTimer := looseState(l.StateKey(l.N() - 1))
	if err := l.LeaveAgent(0); err != nil {
		t.Fatal(err)
	}
	if leader, timer := looseState(l.StateKey(0)); leader != wantLeader || timer != wantTimer {
		t.Fatalf("swap-remove left slot 0 as (%v, %d), want the moved (%v, %d)",
			leader, timer, wantLeader, wantTimer)
	}
	for l.N() > 1 {
		if err := l.LeaveAgent(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.LeaveAgent(0); err == nil {
		t.Fatal("leave emptied the population")
	}
}
