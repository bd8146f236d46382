// run_test.go drives toy protocols through the one run engine, System.Run
// (via sspp.NewCustom), and the one stepping kernel, Steps: stabilization
// times, confirmation windows, budget exhaustion, the poll cadence, and
// non-uniform schedulers. It is an external test package because sspp
// imports sim.
package sim_test

import (
	"strings"
	"testing"

	"sspp"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// countdownProto becomes correct after a fixed number of interactions and
// optionally regresses once for a stretch, to exercise stretch tracking.
type countdownProto struct {
	n         int
	t         uint64
	correctAt uint64
	regressAt uint64 // if > 0, incorrect during [regressAt, regressAt+span)
	span      uint64
}

func (c *countdownProto) N() int { return c.n }

func (c *countdownProto) Interact(a, b int) {
	if a == b {
		panic("scheduler produced identical pair")
	}
	c.t++
}

func (c *countdownProto) Correct() bool {
	if c.t < c.correctAt {
		return false
	}
	if c.regressAt > 0 && c.t >= c.regressAt && c.t < c.regressAt+c.span {
		return false
	}
	return true
}

// run runs p on System.Run until its output is correct, with the given
// extra options.
func run(t *testing.T, p sspp.Protocol, opts ...sspp.RunOption) sspp.Result {
	t.Helper()
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(append([]sspp.RunOption{sspp.Until(sspp.CorrectOutput)}, opts...)...)
}

func TestRunStabilizes(t *testing.T) {
	p := &countdownProto{n: 8, correctAt: 100}
	res := run(t, p, sspp.SchedulerSeed(1), sspp.MaxInteractions(1000), sspp.PollEvery(1))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Stabilized {
		t.Fatal("expected stabilization")
	}
	if res.StabilizedAt != 100 || res.Interactions != 100 {
		t.Fatalf("StabilizedAt = %d after %d interactions, want 100 after 100", res.StabilizedAt, res.Interactions)
	}
}

// TestRunTracksRegression: StabilizedAt reports the start of the final
// correct stretch, not the first correct poll.
func TestRunTracksRegression(t *testing.T) {
	p := &countdownProto{n: 8, correctAt: 50, regressAt: 200, span: 100}
	res := run(t, p, sspp.SchedulerSeed(2), sspp.MaxInteractions(1000), sspp.PollEvery(1), sspp.Confirm(500))
	if !res.Stabilized {
		t.Fatal("expected stabilization")
	}
	if res.StabilizedAt != 300 {
		t.Fatalf("StabilizedAt = %d, want 300", res.StabilizedAt)
	}
	if res.Interactions != 800 {
		t.Fatalf("Interactions = %d, want 800 (300 + the 500 window)", res.Interactions)
	}
}

func TestRunNeverStabilizes(t *testing.T) {
	p := &countdownProto{n: 4, correctAt: 1 << 60}
	res := run(t, p, sspp.SchedulerSeed(3), sspp.MaxInteractions(500))
	if res.Stabilized {
		t.Fatal("unexpected stabilization")
	}
	if res.StabilizedAt != 0 || res.ParallelTime != -1 {
		t.Fatalf("unstabilized run must report StabilizedAt 0 and ParallelTime -1: %+v", res)
	}
	if res.Interactions != 500 {
		t.Fatalf("Interactions = %d, want 500", res.Interactions)
	}
}

func TestRunEarlyStop(t *testing.T) {
	p := &countdownProto{n: 4, correctAt: 10}
	res := run(t, p, sspp.SchedulerSeed(4), sspp.MaxInteractions(1<<30), sspp.PollEvery(1), sspp.Confirm(100))
	if !res.Stabilized {
		t.Fatal("expected stabilization")
	}
	if res.Interactions != 110 {
		t.Fatalf("Interactions = %d, want an early stop at 110", res.Interactions)
	}
}

// TestRunInvariantAborts: an invariant is checked by making its violation
// the stop condition — the run stops at the first poll that sees it.
func TestRunInvariantAborts(t *testing.T) {
	p := &countdownProto{n: 4}
	calls := 0
	violated := sspp.ConditionFunc("invariant-violated", func(*sspp.System) bool {
		calls++
		return calls > 3
	})
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(sspp.Until(violated), sspp.SchedulerSeed(5), sspp.MaxInteractions(1000), sspp.PollEvery(10))
	if !res.Stabilized || res.Condition != "invariant-violated" {
		t.Fatalf("violation not reported: %+v", res)
	}
	if res.Interactions != 30 {
		t.Fatalf("Interactions = %d, want 30 (the fourth poll)", res.Interactions)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := sspp.NewCustom(&countdownProto{n: 1}); err == nil {
		t.Fatal("expected error for n < 2")
	}
	sys, err := sspp.NewCustom(&countdownProto{n: 4, correctAt: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Run(sspp.Until(sspp.CorrectOutput)); res.Interactions != sys.DefaultBudget() {
		t.Fatalf("unset budget ran %d interactions, want DefaultBudget %d", res.Interactions, sys.DefaultBudget())
	}
}

func TestRunInitiallyCorrect(t *testing.T) {
	p := &countdownProto{n: 4, correctAt: 0}
	res := run(t, p, sspp.SchedulerSeed(6), sspp.MaxInteractions(100), sspp.PollEvery(1))
	if !res.Stabilized || res.StabilizedAt != 0 || res.Interactions != 0 {
		t.Fatalf("expected a zero-interaction stop, got %+v", res)
	}
}

func TestParallelTime(t *testing.T) {
	p := &countdownProto{n: 100, correctAt: 800}
	res := run(t, p, sspp.SchedulerSeed(7), sspp.MaxInteractions(10_000), sspp.PollEvery(1))
	if res.ParallelTime != 8 {
		t.Fatalf("ParallelTime = %v, want 8", res.ParallelTime)
	}
}

func TestSteps(t *testing.T) {
	p := &countdownProto{n: 4}
	sim.Steps(p, rng.New(7), 123)
	if p.t != 123 {
		t.Fatalf("Steps performed %d interactions, want 123", p.t)
	}
}

// TestOnCheckHook: the stop condition is polled once at the start and then
// every PollEvery interactions.
func TestOnCheckHook(t *testing.T) {
	p := &countdownProto{n: 4, correctAt: 5}
	polls := 0
	never := sspp.ConditionFunc("never", func(*sspp.System) bool { polls++; return false })
	sys, err := sspp.NewCustom(p)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(sspp.Until(never), sspp.SchedulerSeed(8), sspp.MaxInteractions(50), sspp.PollEvery(5))
	if polls != 11 { // initial poll + 10 cadence polls
		t.Fatalf("polls = %d, want 11", polls)
	}
}

// TestRunSchedAndStepsSched: Run and Steps both deal from a non-uniform
// scheduler on agent-based protocols.
func TestRunSchedAndStepsSched(t *testing.T) {
	p := &countdownProto{n: 8, correctAt: 50}
	res := run(t, p, sspp.WithScheduler(sim.NewZipf(rng.New(5), 8, 0.5)), sspp.MaxInteractions(1000), sspp.PollEvery(1))
	if !res.Stabilized {
		t.Fatal("weighted run did not stabilize")
	}
	q := &countdownProto{n: 8}
	sim.Steps(q, sim.NewZipf(rng.New(6), 8, 0.5), 77)
	if q.t != 77 {
		t.Fatalf("Steps performed %d interactions, want 77", q.t)
	}
}

// TestCountSource pins the scheduler rule for count-based protocols in its
// one place: agent-based protocols take any scheduler, count-based ones
// only a uniform *rng.PRNG.
func TestCountSource(t *testing.T) {
	zipf := sim.NewZipf(rng.New(1), 8, 0.5)
	if src, err := sim.CountSource(&countdownProto{n: 8}, zipf); src != nil || err != nil {
		t.Fatalf("agent-based protocol: CountSource = %v, %v; want nil, nil", src, err)
	}
	var cb countBased
	uniform := rng.New(2)
	if src, err := sim.CountSource(&cb, uniform); src != uniform || err != nil {
		t.Fatalf("count-based, uniform: CountSource = %v, %v; want the stream, nil", src, err)
	}
	_, err := sim.CountSource(&cb, zipf)
	if err == nil || !strings.Contains(err.Error(), "supports only uniform *rng.PRNG schedulers") {
		t.Fatalf("count-based, non-uniform: err = %v", err)
	}
	sim.Steps(&cb, uniform, 40)
	if cb.src != uniform || cb.t != 40 {
		t.Fatalf("Steps bound %p and stepped %d, want the uniform stream and 40", cb.src, cb.t)
	}
	defer func() {
		if e, ok := recover().(error); !ok || e.Error() != err.Error() {
			t.Fatalf("Steps with a non-uniform scheduler panicked with %v, want %v", e, err)
		}
	}()
	sim.Steps(&cb, zipf, 1)
}

// countBased is a minimal count-based protocol: it records the bound
// stream and counts bulk-stepped interactions.
type countBased struct {
	countdownProto
	src *rng.PRNG
}

func (c *countBased) BindSource(src *rng.PRNG) { c.src = src }
func (c *countBased) StepMany(k uint64)        { c.t += k }
