package baseline

import (
	"testing"
	"testing/quick"

	"sspp/internal/coin"
	"sspp/internal/modelcheck"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

func TestCIWRule(t *testing.T) {
	c := NewCIWFromRanks([]int32{3, 3, 1})
	c.Interact(0, 1)
	if c.RankOutput(0) != 3 || c.RankOutput(1) != 1 {
		t.Fatalf("rule broken: %d/%d, want 3/1 (wait: 3 mod 3 + 1 = 1)", c.RankOutput(0), c.RankOutput(1))
	}
	c.Interact(0, 2) // ranks 3 and 1: no-op
	if c.RankOutput(0) != 3 || c.RankOutput(2) != 1 {
		t.Fatal("distinct ranks must not interact")
	}
}

func TestCIWWraparound(t *testing.T) {
	c := NewCIWFromRanks([]int32{3, 3, 2})
	c.Interact(0, 1)
	if c.RankOutput(1) != 1 {
		t.Fatalf("rank n must wrap to 1, got %d", c.RankOutput(1))
	}
}

func TestCIWClamping(t *testing.T) {
	c := NewCIWFromRanks([]int32{-5, 99, 2})
	if c.RankOutput(0) != 1 || c.RankOutput(1) != 3 {
		t.Fatalf("clamping failed: %d/%d", c.RankOutput(0), c.RankOutput(1))
	}
}

// TestCIWSilentOnPermutation: a permutation is a terminal (silent)
// configuration.
func TestCIWSilentOnPermutation(t *testing.T) {
	c := NewCIWFromRanks([]int32{2, 4, 1, 3})
	r := rng.New(7)
	for i := 0; i < 10_000; i++ {
		a, b := r.Pair(4)
		c.Interact(a, b)
	}
	want := []int32{2, 4, 1, 3}
	for i, w := range want {
		if c.RankOutput(i) != w {
			t.Fatalf("silent config changed: agent %d %d -> %d", i, w, c.RankOutput(i))
		}
	}
}

// TestCIWSafeSetPollAllocs: polling CIW's safe set allocates nothing, on
// a permutation (a full scan) and on a collision alike.
func TestCIWSafeSetPollAllocs(t *testing.T) {
	const n = 256
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(n - i)
	}
	c := NewCIWFromRanks(ranks)
	if a := testing.AllocsPerRun(100, func() {
		if !c.InSafeSet() {
			t.Fatal("permutation outside the safe set")
		}
	}); a != 0 {
		t.Fatalf("InSafeSet on a permutation: %v allocs per poll, want 0", a)
	}
	ranks[n-1] = 2
	c = NewCIWFromRanks(ranks)
	if a := testing.AllocsPerRun(100, func() {
		if c.InSafeSet() {
			t.Fatal("duplicate rank inside the safe set")
		}
	}); a != 0 {
		t.Fatalf("InSafeSet on a collision: %v allocs per poll, want 0", a)
	}
}

// TestCIWRanksAlwaysInRangeProperty: the rule never leaves [1, n].
func TestCIWRanksAlwaysInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + int(r.Intn(13))
		ranks := make([]int32, n)
		for i := range ranks {
			ranks[i] = int32(1 + r.Intn(n))
		}
		c := NewCIWFromRanks(ranks)
		for i := 0; i < 500; i++ {
			a, b := r.Pair(n)
			c.Interact(a, b)
			if c.RankOutput(a) < 1 || int(c.RankOutput(a)) > n || c.RankOutput(b) < 1 || int(c.RankOutput(b)) > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNameRankBitsGrow(t *testing.T) {
	nr := NewNameRank(16, coin.FromPRNG(rng.New(1)))
	before := nr.Bits(0)
	sim.Steps(nr, rng.New(2), 2000)
	if nr.Bits(0) <= before {
		t.Fatalf("name-set bits did not grow: %d -> %d", before, nr.Bits(0))
	}
	// At completion each agent stores ~n names of 3·log₂(n) bits each.
	if nr.Bits(0) < 16*12 {
		t.Fatalf("completed agent stores %d bits, want >= %d", nr.Bits(0), 16*12)
	}
}

func TestMergeSorted(t *testing.T) {
	cases := []struct{ x, y, want []int64 }{
		{nil, nil, []int64{}},
		{[]int64{1, 3}, []int64{2}, []int64{1, 2, 3}},
		{[]int64{1, 2}, []int64{1, 2}, []int64{1, 2}},
		{[]int64{5}, nil, []int64{5}},
	}
	for _, c := range cases {
		got := mergeSorted(c.x, c.y)
		if len(got) != len(c.want) {
			t.Fatalf("mergeSorted(%v,%v) = %v", c.x, c.y, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("mergeSorted(%v,%v) = %v", c.x, c.y, got)
			}
		}
	}
}

// TestLooseLEHoldingIsFinite: with a tiny τ (far below the epidemic time)
// timers die before the leader's heartbeats arrive, so spurious leaders keep
// appearing and the single-leader condition is held only a small fraction of
// the time — demonstrating loose (not strict) stabilization.
func TestLooseLEHoldingIsFinite(t *testing.T) {
	const n = 32
	l := NewLooseLE(n, 4)
	r := rng.New(4)
	polls, correct := 0, 0
	for i := 0; i < 200_000; i++ {
		a, b := r.Pair(n)
		l.Interact(a, b)
		if i%n == 0 {
			polls++
			if l.Correct() {
				correct++
			}
			if l.Leaders() < 1 {
				t.Fatal("population must never be leaderless under timeout dynamics")
			}
		}
	}
	if frac := float64(correct) / float64(polls); frac > 0.9 {
		t.Fatalf("tiny τ held a unique leader %.0f%% of the time; loose stabilization should churn", frac*100)
	}
}

// TestLooseLETauFloor ties NewLooseLE's floor of 2 to the exhaustive
// check of LooseLE's own rule at n = 8: at τ = 1 most count vectors cannot
// reach a one-leader configuration, since every timer is 0 after each
// interaction and every non-leader that interacts promotes itself; at
// τ = 2 every one can.
func TestLooseLETauFloor(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		tau                int32
		configs, unreached int
	}{{1, 165, 149}, {2, 1287, 0}} {
		l := &LooseLE{keyed: keyed{keys: make([]uint32, n), rules: looseRules(tc.tau)}, tau: tc.tau}
		m := l.Compact()
		rep, err := modelcheck.CheckCounts(m, n, 0, m.StateSpace-1, func(v sim.CountView) bool {
			var leaders int64
			v.Each(func(key uint64, c int64) bool {
				if m.Leader(key) {
					leaders += c
				}
				return true
			})
			return leaders == 1
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Configurations != tc.configs || rep.Unreached != tc.unreached {
			t.Errorf("τ=%d: %d configurations, %d cannot reach one leader; want %d and %d",
				tc.tau, rep.Configurations, rep.Unreached, tc.configs, tc.unreached)
		}
	}
}

func TestLooseLETauClamp(t *testing.T) {
	for _, tau := range []int32{0, 1} {
		if got := NewLooseLE(4, tau).Tau(); got != 2 {
			t.Fatalf("τ %d clamped to %d, want 2", tau, got)
		}
	}
}
