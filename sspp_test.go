package sspp

import (
	"fmt"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 1, R: 1}); err == nil {
		t.Fatal("n < 2 must fail")
	}
	if _, err := New(Config{N: 32, R: 17}); err == nil {
		t.Fatal("r > n/2 must fail")
	}
	if _, err := New(Config{N: 32, R: 17}); err != nil && !strings.Contains(err.Error(), "sspp:") {
		t.Fatal("errors must be wrapped with the package prefix")
	}
}

func TestEndToEnd(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 16 || sys.R() != 4 {
		t.Fatal("accessors broken")
	}
	res := sys.Run(Until(SafeSet), SchedulerSeed(2))
	if !res.Stabilized {
		t.Fatalf("no stabilization within default budget %d", sys.DefaultBudget())
	}
	if res.ParallelTime <= 0 {
		t.Fatalf("parallel time = %v", res.ParallelTime)
	}
	leader, ok := sys.Leader()
	if !ok {
		t.Fatal("no unique leader after stabilization")
	}
	if got := sys.Ranks()[leader]; got != 1 {
		t.Fatalf("leader rank = %d, want 1", got)
	}
	if !sys.Correct() || !sys.CorrectRanking() || !sys.InSafeSet() {
		t.Fatal("predicates disagree after stabilization")
	}
	if sys.Leaders() != 1 {
		t.Fatal("Leaders() should be 1")
	}
	if sys.Interactions() == 0 {
		t.Fatal("interaction counter did not advance")
	}
	_, _, verifying := sys.Roles()
	if verifying != 16 {
		t.Fatalf("verifying = %d, want 16", verifying)
	}
}

func TestInjectAndRecover(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryTwoLeaders, 5); err != nil {
		t.Fatal(err)
	}
	if sys.Leaders() != 2 {
		t.Fatalf("injection produced %d leaders, want 2", sys.Leaders())
	}
	res := sys.Run(Until(SafeSet), SchedulerSeed(6))
	if !res.Stabilized {
		t.Fatal("no recovery from two leaders")
	}
	if sys.HardResets() == 0 {
		t.Fatal("two-leader recovery requires a hard reset")
	}
	if sys.Events() == "" {
		t.Fatal("event log empty")
	}
	if sys.EventCount("core.hard_reset") != sys.HardResets() {
		t.Fatal("EventCount/HardResets mismatch")
	}
}

// TestEventsAllSeven pins the event log of a two-leader recovery that fires
// every event, and checks that EventCount and HardResets read the same
// counters the log prints.
func TestEventsAllSeven(t *testing.T) {
	sys, err := New(Config{N: 64, R: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryTwoLeaders, 3); err != nil {
		t.Fatal(err)
	}
	sys.Run(SchedulerSeed(2))
	const want = "core.awaken=64 core.became_verifier=64 core.hard_reset=4 core.infected=60 " +
		"verify.hard_reset=4 verify.soft_reset=64 verify.top=6"
	if got := sys.Events(); got != want {
		t.Fatalf("events:\n%s\nwant:\n%s", got, want)
	}
	for _, field := range strings.Fields(want) {
		name, count, _ := strings.Cut(field, "=")
		if got := fmt.Sprint(sys.EventCount(name)); got != count {
			t.Errorf("EventCount(%q) = %s, want %s", name, got, count)
		}
	}
	if sys.HardResets() != sys.EventCount("core.hard_reset") {
		t.Errorf("HardResets %d, EventCount %d", sys.HardResets(), sys.EventCount("core.hard_reset"))
	}
	if got := sys.EventCount("core.no_such_event"); got != 0 {
		t.Errorf("unknown event counts %d", got)
	}
}

func TestInjectUnknownClass(t *testing.T) {
	sys, err := New(Config{N: 8, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(Adversary("bogus"), 1); err == nil {
		t.Fatal("unknown class must error")
	}
}

func TestRunToStableOutput(t *testing.T) {
	sys, err := New(Config{N: 16, R: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(Until(CorrectOutput), SchedulerSeed(7), Confirm(uint64(20*sys.N())))
	if !res.Stabilized || res.StabilizedAt != 1575 || res.Interactions != 1895 {
		t.Fatalf("Run = %+v, want stabilized at 1575 after 1895 interactions", res)
	}
	if !sys.Correct() {
		t.Fatal("output-stable but incorrect")
	}
}

func TestStepDeterminism(t *testing.T) {
	build := func() *System {
		sys, err := New(Config{N: 16, R: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := build(), build()
	a.Step(11, 5000)
	b.Step(11, 5000)
	ra, rb := a.Ranks(), b.Ranks()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("same seeds diverged at agent %d", i)
		}
	}
}

func TestSyntheticCoinsConfig(t *testing.T) {
	sys, err := New(Config{N: 16, R: 4, Seed: 5, SyntheticCoins: true})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(Until(SafeSet), SchedulerSeed(8))
	if !res.Stabilized {
		t.Fatal("derandomized mode did not stabilize")
	}
}

func TestStateBits(t *testing.T) {
	if StateBits(1024, 512) <= StateBits(1024, 1) {
		t.Fatal("state bits must grow with r")
	}
}
