// inject_test.go covers the Injectable surface of the baselines: each
// realizable adversary class must land the population in the configuration
// the class names, unrealizable classes must be rejected, and transient
// corruption must hit exactly the reported victims with type-valid states.

package baseline

import (
	"testing"

	"sspp/internal/rng"
)

func TestCIWInjectClasses(t *testing.T) {
	const n = 16
	src := rng.New(11)
	c := NewCIW(n)

	if err := c.Inject("clean-rankers", src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if r := c.RankOutput(i); r != 1 {
			t.Fatalf("clean-rankers: agent %d has rank %d, want 1", i, r)
		}
	}

	countRank := func(want int32) int {
		k := 0
		for i := 0; i < n; i++ {
			if c.RankOutput(i) == want {
				k++
			}
		}
		return k
	}
	if err := c.Inject("two-leaders", src); err != nil {
		t.Fatal(err)
	}
	if countRank(1) != 2 || countRank(2) != 0 {
		t.Fatalf("two-leaders: %d rank-1 and %d rank-2 agents, want 2 and 0", countRank(1), countRank(2))
	}
	if err := c.Inject("no-leader", src); err != nil {
		t.Fatal(err)
	}
	if countRank(1) != 0 || countRank(2) != 2 {
		t.Fatalf("no-leader: %d rank-1 and %d rank-2 agents, want 0 and 2", countRank(1), countRank(2))
	}

	validRanks := func(ctx string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if r := c.RankOutput(i); r < 1 || r > n {
				t.Fatalf("%s: agent %d has rank %d outside [1, %d]", ctx, i, r, n)
			}
		}
	}
	if err := c.Inject("duplicate-ranks", src); err != nil {
		t.Fatal(err)
	}
	validRanks("duplicate-ranks")
	if err := c.Inject("random-garbage", src); err != nil {
		t.Fatal(err)
	}
	validRanks("random-garbage")

	if err := c.Inject("mixed-roles", src); err == nil {
		t.Fatal("class mixed-roles accepted: CIW has no role structure")
	}

	// Transient corruption: distinct victims, type-valid states, and the
	// k ≤ 0 / k > n edges of the victim draw.
	hit := c.InjectTransient(4, src)
	if len(hit) != 4 {
		t.Fatalf("transient k=4 hit %d agents", len(hit))
	}
	seen := make([]bool, n)
	for _, i := range hit {
		if seen[i] {
			t.Fatalf("transient victims repeat index %d", i)
		}
		seen[i] = true
	}
	validRanks("transient")
	if hit := c.InjectTransient(0, src); hit != nil {
		t.Fatalf("transient k=0 hit %d agents, want none", len(hit))
	}
	if hit := c.InjectTransient(n+5, src); len(hit) != n {
		t.Fatalf("transient k>n hit %d agents, want the whole population", len(hit))
	}
}

func TestLooseLEInjectClasses(t *testing.T) {
	const (
		n   = 12
		tau = int32(5)
	)
	src := rng.New(13)
	l := NewLooseLE(n, tau)

	if err := l.Inject("no-leader", src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if leader, timer := looseState(l.StateKey(i)); leader || timer != 0 {
			t.Fatalf("no-leader: agent %d is (%v, %d), want a dead non-leader", i, leader, timer)
		}
	}

	if err := l.Inject("two-leaders", src); err != nil {
		t.Fatal(err)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		leader, timer := looseState(l.StateKey(i))
		if leader {
			leaders++
		}
		if timer != tau {
			t.Fatalf("two-leaders: agent %d has timer %d, want a re-armed %d", i, timer, tau)
		}
	}
	if leaders != 2 {
		t.Fatalf("two-leaders: %d leaders, want 2", leaders)
	}

	if err := l.Inject("random-garbage", src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, timer := looseState(l.StateKey(i)); timer < 0 || timer > tau {
			t.Fatalf("random-garbage: agent %d has timer %d outside [0, %d]", i, timer, tau)
		}
	}

	if err := l.Inject("duplicate-ranks", src); err == nil {
		t.Fatal("class duplicate-ranks accepted: LooseLE has no ranks")
	}

	hit := l.InjectTransient(3, src)
	if len(hit) != 3 {
		t.Fatalf("transient k=3 hit %d agents", len(hit))
	}
	for _, i := range hit {
		if _, timer := looseState(l.StateKey(i)); timer < 0 || timer > tau {
			t.Fatalf("transient: victim %d has timer %d outside [0, %d]", i, timer, tau)
		}
	}
}
