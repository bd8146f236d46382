package modelcheck

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// chainMachine is a trivial machine for exercising Explore: states are
// integers 0..limit, each with successors +1 and +2.
type chainMachine struct{ limit int }

func (m chainMachine) Initial(yield func([]byte, State) bool) { yield([]byte("0"), 0) }

func (m chainMachine) Successors(s State, yield func([]byte, State) bool) {
	v := s.(int)
	for _, d := range []int{1, 2} {
		if v+d <= m.limit {
			yield(strconv.AppendInt(nil, int64(v+d), 10), v+d)
		}
	}
}

func TestExploreExhaustsSmallMachine(t *testing.T) {
	rep := Explore(chainMachine{limit: 10}, nil, false, Options{MaxStates: 100})
	if rep.Truncated {
		t.Fatal("should not truncate")
	}
	if rep.Explored != 11 {
		t.Fatalf("explored %d, want 11", rep.Explored)
	}
	if rep.Violations != 0 || rep.FirstViolationDepth != -1 {
		t.Fatalf("unexpected violations: %+v", rep)
	}
	if rep.MaxDepth < 5 || rep.MaxDepth > 10 {
		t.Fatalf("MaxDepth = %d, want within [5, 10]", rep.MaxDepth)
	}
}

func TestExploreTruncates(t *testing.T) {
	rep := Explore(chainMachine{limit: 1000}, nil, false, Options{MaxStates: 10})
	if !rep.Truncated {
		t.Fatal("expected truncation")
	}
	if rep.Explored > 10 {
		t.Fatalf("explored %d > budget", rep.Explored)
	}
}

// TestExploreRejectsNonPositiveBudget: a budget below 1, the zero Options
// included, is not replaced by a default; Explore refuses it.
func TestExploreRejectsNonPositiveBudget(t *testing.T) {
	for _, budget := range []int{0, -7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxStates %d: no panic", budget)
				}
			}()
			Explore(chainMachine{limit: 10}, nil, false, Options{MaxStates: budget})
		}()
	}
}

func TestExploreFindsViolation(t *testing.T) {
	bad := func(s State) bool { return s.(int) == 7 }
	rep := Explore(chainMachine{limit: 10}, bad, true, Options{MaxStates: 100})
	if rep.Violations != 1 {
		t.Fatalf("violations = %d", rep.Violations)
	}
	// 7 is reachable in ⌈7/2⌉ = 4 steps at the earliest.
	if rep.FirstViolationDepth != 4 {
		t.Fatalf("first violation at depth %d, want 4", rep.FirstViolationDepth)
	}
}

// TestDetectSoundnessExhaustive is the exhaustive version of Lemma E.2 for
// n = 2: with a tiny signature space the reachable configuration space
// collapses to a handful of states (balancing and restamping are idempotent
// here), and the search closes it completely — a full proof that no
// schedule and no draws can raise ⊤ from a correct initialization at this
// instance size.
func TestDetectSoundnessExhaustive(t *testing.T) {
	m, err := NewDetectMachine(2, 2, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Explore(m, AnyTop, true, Options{MaxStates: 30_000})
	if rep.Violations != 0 {
		t.Fatalf("⊤ reachable from a correct initialization: %+v", rep)
	}
	if rep.Truncated {
		t.Fatalf("expected full closure of the reachable space: %+v", rep)
	}
	t.Logf("exhaustive soundness at n=2: reachable space fully closed with %d configurations",
		rep.Explored)
}

// TestDetectSoundnessBounded widens to n = 3 with a slower refresh period,
// where the reachable space is large: the guarantee is bounded (every
// execution prefix within the explored budget), which is exactly what
// bounded model checking provides.
func TestDetectSoundnessBounded(t *testing.T) {
	m, err := NewDetectMachine(3, 3, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Explore(m, AnyTop, true, Options{MaxStates: 20_000})
	if rep.Violations != 0 {
		t.Fatalf("⊤ reachable from a correct initialization: %+v", rep)
	}
	if rep.Explored < 1000 {
		t.Fatalf("exploration too small to be meaningful: %+v", rep)
	}
	t.Logf("bounded soundness at n=3: %d configurations, truncated=%v, depth %d",
		rep.Explored, rep.Truncated, rep.MaxDepth)
}

// TestDetectCompletenessBounded is the dual: with a duplicated rank, ⊤ IS
// reachable (and quickly — the duplicate pair's first meeting raises it).
func TestDetectCompletenessBounded(t *testing.T) {
	m, err := NewDetectMachine(3, 3, []int32{1, 1, 3}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Explore(m, AnyTop, true, Options{MaxStates: 30_000})
	if rep.Violations == 0 {
		t.Fatalf("⊤ unreachable despite duplicate rank: %+v", rep)
	}
	if rep.FirstViolationDepth != 1 {
		t.Fatalf("first ⊤ at depth %d, want 1 (direct meeting)", rep.FirstViolationDepth)
	}
	t.Logf("duplicate rank raises ⊤ at depth %d after %d configurations",
		rep.FirstViolationDepth, rep.Explored)
}

func TestDetectMachineValidation(t *testing.T) {
	if _, err := NewDetectMachine(1, 1, nil, 2, 1); err == nil {
		t.Fatal("n < 2 must fail")
	}
	if _, err := NewDetectMachine(3, 3, []int32{1}, 2, 1); err == nil {
		t.Fatal("rank length mismatch must fail")
	}
}

// TestDetectMachineDeterministicKeys pins the distinct successors of the
// initial n = 2 configuration: 2 ordered pairs × 2² draw assignments, all
// of which read both draws and lead to different configurations.
func TestDetectMachineDeterministicKeys(t *testing.T) {
	m, err := NewDetectMachine(2, 2, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var initial []string
	var init State
	for range 2 {
		m.Initial(func(key []byte, s State) bool {
			initial, init = append(initial, string(key)), s
			return true
		})
	}
	if len(initial) != 2 || initial[0] != initial[1] {
		t.Fatalf("initial keys %q, want one repeated key", initial)
	}
	keys := map[string]bool{}
	m.Successors(init, func(key []byte, _ State) bool {
		keys[string(key)] = true
		return false // not kept: the machine reuses the configuration
	})
	if len(keys) != 8 {
		t.Fatalf("distinct successors = %d, want 8", len(keys))
	}
}

// drawLayer's agents are integers; an interaction of (a, b) reads as many
// draws as agent a's value and stores their digits in agent b.
type drawLayer struct{}

func (drawLayer) Clone(v int) int { return v }

func (drawLayer) AppendKey(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func (drawLayer) Interact(_, next []int, a, b int, sample func(int) int) bool {
	next[b] = 0
	for range next[a] {
		next[b] = 10*next[b] + 1 + sample(3)
	}
	return false
}

// TestPairwiseBranchesOnReadDraws checks that the machine branches only on
// the draws an interaction read: sigSpace^k transitions per ordered pair
// whose initiator reads k draws.
func TestPairwiseBranchesOnReadDraws(t *testing.T) {
	m := NewPairwise[int](drawLayer{}, 3, []int{0, 1, 2})
	var start State
	m.Initial(func(_ []byte, s State) bool { start = s; return true })
	transitions := 0
	m.Successors(start, func([]byte, State) bool { transitions++; return false })
	// Initiator 0 reads no draw, initiator 1 one, initiator 2 two; each
	// initiates two pairs.
	if want := 2*1 + 2*3 + 2*9; transitions != want {
		t.Fatalf("%d transitions, want %d", transitions, want)
	}
}

// TestPairwiseRejectsThirdDraw: reusing a draw would skip part of the
// nondeterminism while the search still reported a proof, so an initiator
// reading a third draw must stop the search.
func TestPairwiseRejectsThirdDraw(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "more than 2 draws") {
			t.Fatalf("recovered %v, want the third-draw panic", r)
		}
	}()
	Explore(NewPairwise[int](drawLayer{}, 2, []int{3, 0}), nil, false, Options{MaxStates: 100})
	t.Fatal("a third draw went unnoticed")
}

// TestVerifyClosureExhaustive is Lemma 6.1 at n=2, checked exhaustively:
// from both safe-configuration shapes (all generation 0; and the
// two-generation soft-reset wave), no schedule and no draws ever request a
// hard reset. The reachable space must close completely within the budget.
func TestVerifyClosureExhaustive(t *testing.T) {
	m, err := NewVerifyMachine(2, 2, nil, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Explore(m, HardReset, true, Options{MaxStates: 100_000})
	if rep.Violations != 0 {
		t.Fatalf("hard reset reachable from a safe configuration: %+v", rep)
	}
	if rep.Truncated {
		t.Fatalf("expected full closure at n=2: %+v", rep)
	}
	t.Logf("verify-layer closure at n=2: %d configurations fully closed (depth %d)",
		rep.Explored, rep.MaxDepth)
}

// TestVerifyClosureBounded widens to n=3 with a slower refresh; bounded
// guarantee.
func TestVerifyClosureBounded(t *testing.T) {
	m, err := NewVerifyMachine(3, 3, nil, 2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Explore(m, HardReset, true, Options{MaxStates: 15_000})
	if rep.Violations != 0 {
		t.Fatalf("hard reset reachable from a safe configuration: %+v", rep)
	}
	t.Logf("verify-layer closure at n=3: %d configurations (truncated=%v, depth %d)",
		rep.Explored, rep.Truncated, rep.MaxDepth)
}

// TestVerifyDuplicateRankEscalates is the dual: with a duplicated rank and
// tiny probation, a hard reset IS reachable (the escalation Lemma F.6
// requires).
func TestVerifyDuplicateRankEscalates(t *testing.T) {
	m, err := NewVerifyMachine(2, 2, []int32{1, 1}, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Explore(m, HardReset, true, Options{MaxStates: 50_000})
	if rep.Violations == 0 {
		t.Fatalf("hard reset unreachable despite duplicate ranks: %+v", rep)
	}
	t.Logf("duplicate rank escalates to hard reset at depth %d after %d configurations",
		rep.FirstViolationDepth, rep.Explored)
}

func TestVerifyMachineValidation(t *testing.T) {
	if _, err := NewVerifyMachine(1, 1, nil, 2, 1, 3); err == nil {
		t.Fatal("n < 2 must fail")
	}
	if _, err := NewVerifyMachine(2, 2, []int32{1}, 2, 1, 3); err == nil {
		t.Fatal("rank mismatch must fail")
	}
	m, err := NewVerifyMachine(2, 2, nil, 0, 0, 0) // all clamped
	if err != nil {
		t.Fatal(err)
	}
	shapes := 0
	m.Initial(func([]byte, State) bool { shapes++; return true })
	if shapes != 2 {
		t.Fatal("two initial shapes expected")
	}
}

// TestExploreCostFollowsStatesNotBudget pins Explore's memory to the
// configurations it visits rather than to its budget: the 24-configuration
// detect search allocates within 2× as much at MaxStates 100 000 as at 100,
// and reports the same.
func TestExploreCostFollowsStatesNotBudget(t *testing.T) {
	m, err := NewDetectMachine(2, 2, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	cost := func(maxStates int) (rep Report, allocs float64, bytes uint64) {
		explore := func() { rep = Explore(m, AnyTop, false, Options{MaxStates: maxStates}) }
		allocs = testing.AllocsPerRun(runs, explore)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			explore()
		}
		runtime.ReadMemStats(&after)
		return rep, allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, smallAllocs, smallBytes := cost(100)
	large, largeAllocs, largeBytes := cost(100_000)
	if small != large || small.Explored != 24 || small.Truncated {
		t.Fatalf("reports differ or are not the full 24-configuration search: %+v at MaxStates 100, %+v at 100 000", small, large)
	}
	if largeAllocs > 2*smallAllocs || largeBytes > 2*smallBytes {
		t.Fatalf("MaxStates 100 000 cost %.0f allocs and %d B a search, MaxStates 100 %.0f allocs and %d B: want within 2×",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}
