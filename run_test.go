package sspp

import (
	"context"
	"testing"

	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/rng"
)

// buildCorePair builds a registry System and a custom System over a bare
// core.Protocol with identical configuration and adversarial start, so the
// two construction paths can be compared run for run.
func buildCorePair(t *testing.T, n, r int, seed uint64, class Adversary, advSeed uint64) (*System, *System) {
	t.Helper()
	sys, err := New(Config{N: n, R: r, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(n, r, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if class != "" {
		if err := sys.Inject(class, advSeed); err != nil {
			t.Fatal(err)
		}
		if err := adversary.Apply(p, adversary.Class(class), rng.New(advSeed)); err != nil {
			t.Fatal(err)
		}
	}
	custom, err := NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys, custom
}

// TestRunToSafeSetGolden pins Run(Until(SafeSet)) to literal results
// recorded before the engine was consolidated, for both construction paths
// (New and NewCustom over core.New) under the same seeds.
func TestRunToSafeSetGolden(t *testing.T) {
	cases := []struct {
		n, r      int
		class     Adversary
		seed      uint64
		schedSeed uint64
		at        uint64 // StabilizedAt == Interactions
	}{
		{16, 4, AdversaryTriggered, 1, 2, 7128},
		{16, 4, AdversaryTwoLeaders, 3, 4, 7380},
		{24, 6, AdversaryRandomGarbage, 5, 6, 12038},
		{16, 8, "", 7, 8, 4329},
		{12, 3, AdversaryStuckRankers, 9, 10, 4809},
	}
	for _, c := range cases {
		sys, custom := buildCorePair(t, c.n, c.r, c.seed, c.class, c.seed+50)
		opts := []RunOption{Until(SafeSet), SchedulerSeed(c.schedSeed), MaxInteractions(sys.DefaultBudget())}
		res := sys.Run(opts...)
		want := Result{Interactions: c.at, Stabilized: true, StabilizedAt: c.at,
			ParallelTime: float64(c.at) / float64(c.n), Condition: "safe-set"}
		if res != want {
			t.Errorf("n=%d r=%d class=%q: Run = %+v, want %+v", c.n, c.r, c.class, res, want)
		}
		if got := custom.Run(opts...); got != res {
			t.Errorf("n=%d r=%d class=%q: NewCustom(core.New) run %+v != New run %+v",
				c.n, c.r, c.class, got, res)
		}
	}
}

// TestRunToStableOutputGolden pins Run(Until(CorrectOutput), Confirm(w)) to
// literal (StabilizedAt, Interactions, Stabilized) results recorded before
// the engine was consolidated, for both construction paths.
func TestRunToStableOutputGolden(t *testing.T) {
	cases := []struct {
		n, r             int
		class            Adversary
		seed             uint64
		schedSeed        uint64
		max, confirm     uint64
		at, interactions uint64
		stabilized       bool
	}{
		{16, 8, "", 4, 7, 0, 320, 1575, 1895, true},
		{16, 4, AdversaryTriggered, 11, 12, 0, 100, 3295, 3395, true},
		{16, 4, AdversaryNoLeader, 13, 14, 0, 320, 3455, 3775, true},
		{16, 4, AdversaryTriggered, 15, 16, 500, 50, 0, 500, false}, // tight budget
	}
	for _, c := range cases {
		sys, custom := buildCorePair(t, c.n, c.r, c.seed, c.class, c.seed+50)
		max := c.max
		if max == 0 {
			max = sys.DefaultBudget()
		}
		opts := []RunOption{Until(CorrectOutput), SchedulerSeed(c.schedSeed),
			MaxInteractions(max), Confirm(c.confirm)}
		res := sys.Run(opts...)
		if res.StabilizedAt != c.at || res.Interactions != c.interactions || res.Stabilized != c.stabilized {
			t.Errorf("n=%d r=%d class=%q: Run = (%d, %d, %v), want (%d, %d, %v)",
				c.n, c.r, c.class, res.StabilizedAt, res.Interactions, res.Stabilized,
				c.at, c.interactions, c.stabilized)
		}
		if got := custom.Run(opts...); got != res {
			t.Errorf("n=%d r=%d class=%q: NewCustom(core.New) run %+v != New run %+v",
				c.n, c.r, c.class, got, res)
		}
	}
}

// TestTraceGolden pins a traced run — Observe and PollEvery on one cadence —
// to its literal result and observation stream, recorded before the engine
// was consolidated.
func TestTraceGolden(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryTriggered, 62); err != nil {
		t.Fatal(err)
	}
	const cadence = 64
	var obs []uint64
	res := sys.Run(Until(SafeSet), SchedulerSeed(63), PollEvery(cadence),
		Observe(cadence, func(s Snapshot) { obs = append(obs, s.Interactions) }))
	want := Result{Interactions: 7168, Stabilized: true, ParallelTime: 448, StabilizedAt: 7168, Condition: "safe-set"}
	if res != want {
		t.Fatalf("Run = %+v, want %+v", res, want)
	}
	if len(obs) != 112 {
		t.Fatalf("%d observations, want 112", len(obs))
	}
	for i, at := range obs {
		if at != uint64(cadence*(i+1)) {
			t.Fatalf("observation %d at %d, want %d", i, at, cadence*(i+1))
		}
	}
}

// TestRunDefaultsMatchExplicit: a bare Run() equals the fully spelled-out
// option list it documents.
func TestRunDefaultsMatchExplicit(t *testing.T) {
	build := func() *System {
		sys, err := New(Config{N: 16, R: 4, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(AdversaryTriggered, 22); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a := build().Run()
	b := build().Run(Until(SafeSet), SchedulerSeed(22), MaxInteractions(0))
	if a != b {
		t.Fatalf("defaults diverge: %+v vs %+v", a, b)
	}
	if a.Condition != "safe-set" {
		t.Fatalf("condition = %q", a.Condition)
	}
}

// TestObserveFinalDeliveredExactlyOnce is the regression test for the
// final-observation contract: every cadence, plus exactly one closing
// observation — never two — even when the budget is exhausted exactly on a
// cadence boundary.
func TestObserveFinalDeliveredExactlyOnce(t *testing.T) {
	never := ConditionFunc("never", func(*System) bool { return false })
	newSys := func() *System {
		sys, err := New(Config{N: 16, R: 4, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cases := []struct {
		name         string
		max, cadence uint64
		wantObs      int
		wantLast     uint64
	}{
		{"budget on cadence boundary", 800, 200, 4, 800},
		{"budget off boundary", 700, 200, 4, 700}, // 200, 400, 600 + final at 700
		{"cadence larger than budget", 150, 400, 1, 150},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var at []uint64
			res := newSys().Run(
				Until(never),
				MaxInteractions(c.max),
				Observe(c.cadence, func(s Snapshot) { at = append(at, s.Interactions) }),
			)
			if res.Stabilized {
				t.Fatal("never-condition stabilized")
			}
			if len(at) != c.wantObs {
				t.Fatalf("observations = %d at %v, want %d", len(at), at, c.wantObs)
			}
			if at[len(at)-1] != c.wantLast {
				t.Fatalf("last observation at %d, want %d", at[len(at)-1], c.wantLast)
			}
			for i := 1; i < len(at); i++ {
				if at[i] <= at[i-1] {
					t.Fatalf("duplicate or unordered observation at %v", at)
				}
			}
		})
	}
}

// TestObserveFinalOnEarlyStop: when the run stops on its condition, the
// closing observation shows the final state and is not duplicated when the
// stop lands on an observation boundary.
func TestObserveFinalOnEarlyStop(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryTriggered, 34); err != nil {
		t.Fatal(err)
	}
	var at []uint64
	res := sys.Run(
		Until(SafeSet),
		SchedulerSeed(35),
		// Observation cadence equals the poll cadence, so the stopping poll
		// coincides with an observation boundary.
		PollEvery(64),
		Observe(64, func(s Snapshot) { at = append(at, s.Interactions) }),
	)
	if !res.Stabilized {
		t.Fatal("no stabilization")
	}
	if len(at) == 0 || at[len(at)-1] != res.Interactions {
		t.Fatalf("final observation missing: %v vs end %d", at, res.Interactions)
	}
	if len(at) >= 2 && at[len(at)-1] == at[len(at)-2] {
		t.Fatalf("final observation duplicated: %v", at)
	}
}

// TestRunCustomCondition: user-supplied predicates are first-class stop
// conditions.
func TestRunCustomCondition(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	allVerifying := ConditionFunc("all-verifying", func(s *System) bool {
		_, _, verifying := s.Roles()
		return verifying == s.N()
	})
	res := sys.Run(Until(allVerifying), SchedulerSeed(42))
	if !res.Stabilized {
		t.Fatal("population never fully verifying")
	}
	if res.Condition != "all-verifying" {
		t.Fatalf("condition = %q", res.Condition)
	}
	_, _, verifying := sys.Roles()
	if verifying != 16 {
		t.Fatalf("verifying = %d at stop", verifying)
	}
}

// TestRunConfirmWindow: with Confirm, StabilizedAt reports the start of the
// confirmed stretch and the run executes at least the window past it.
func TestRunConfirmWindow(t *testing.T) {
	sys, err := New(Config{N: 16, R: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	const window = 640
	res := sys.Run(Until(CorrectOutput), SchedulerSeed(44), Confirm(window))
	if !res.Stabilized {
		t.Fatal("output never stabilized")
	}
	if res.Interactions-res.StabilizedAt < window {
		t.Fatalf("window not honoured: stretch %d < %d",
			res.Interactions-res.StabilizedAt, window)
	}
	if !sys.Correct() {
		t.Fatal("confirmed but incorrect")
	}
}

// TestRunWithContextCancel: a cancelled context stops the run at the next
// poll with Err set and Stabilized false.
func TestRunWithContextCancel(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryTriggered, 46); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	polls := 0
	gate := ConditionFunc("cancel-after-3", func(s *System) bool {
		polls++
		if polls == 3 {
			cancel()
		}
		return false
	})
	res := sys.Run(Until(gate), SchedulerSeed(47), WithContext(ctx))
	if res.Err == nil {
		t.Fatal("cancellation not reported")
	}
	if res.Stabilized {
		t.Fatal("cancelled run reported stabilized")
	}
	if res.Interactions == 0 || res.Interactions >= sys.DefaultBudget() {
		t.Fatalf("cancelled at %d interactions", res.Interactions)
	}
}

// TestRunPreCancelledContext: a context cancelled before the run starts
// executes zero interactions.
func TestRunPreCancelledContext(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := sys.Run(WithContext(ctx), SchedulerSeed(49))
	if res.Err == nil || res.Interactions != 0 || res.Stabilized {
		t.Fatalf("pre-cancelled run = %+v", res)
	}
}

// TestInjectTransientAt: a fault burst scheduled inside the run strikes at
// its exact interaction count and the run recovers past it.
func TestInjectTransientAt(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	// Stabilize first, so the scheduled burst is the only disturbance.
	if res := sys.Run(SchedulerSeed(52)); !res.Stabilized {
		t.Fatal("setup failed")
	}
	var sawUnsafe bool
	res := sys.Run(
		Until(SafeSet),
		SchedulerSeed(53),
		Confirm(uint64(40*sys.N())),
		InjectTransientAt(100, 8, 54),
		Observe(8, func(s Snapshot) {
			if !s.InSafeSet {
				sawUnsafe = true
			}
		}),
	)
	if !res.Stabilized {
		t.Fatal("no recovery from scheduled burst")
	}
	if res.Interactions <= 100 {
		t.Fatalf("run ended at %d, before the scheduled fault", res.Interactions)
	}
	if !sawUnsafe {
		t.Fatal("burst of 8/16 agents never left the safe set")
	}
	if sys.Leaders() != 1 {
		t.Fatalf("leaders = %d after recovery", sys.Leaders())
	}
}

// TestRunDeterministicWithScheduler: two identical systems driven by two
// identically seeded schedulers produce identical results and final states.
func TestRunDeterministicWithScheduler(t *testing.T) {
	run := func(sched Scheduler) (Result, string) {
		sys, err := New(Config{N: 16, R: 4, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(AdversaryRandomGarbage, 56); err != nil {
			t.Fatal(err)
		}
		return sys.Run(WithScheduler(sched)), sys.Events()
	}
	r1, e1 := run(NewUniform(57))
	r2, e2 := run(NewUniform(57))
	if r1 != r2 || e1 != e2 {
		t.Fatalf("non-deterministic: %+v/%s vs %+v/%s", r1, e1, r2, e2)
	}
}
