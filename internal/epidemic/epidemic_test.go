package epidemic

import (
	"testing"
	"testing/quick"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

func TestOneWayDirectionality(t *testing.T) {
	e := NewOneWay(4, 0)
	e.Interact(1, 0) // susceptible initiator: no transmission
	if e.Infected() != 1 {
		t.Fatal("one-way epidemic transmitted against direction")
	}
	e.Interact(0, 1)
	if !e.IsInfected(1) || e.Infected() != 2 {
		t.Fatal("one-way epidemic failed to transmit with direction")
	}
}

func TestTwoWayBothDirections(t *testing.T) {
	e := NewTwoWay(4, 0)
	e.Interact(1, 0)
	if !e.IsInfected(1) {
		t.Fatal("two-way epidemic failed on responder->initiator")
	}
	e.Interact(2, 3)
	if e.Infected() != 2 {
		t.Fatal("two susceptible agents should not create infection")
	}
}

func TestDuplicateSources(t *testing.T) {
	e := NewOneWay(4, 1, 1, 2)
	if e.Infected() != 2 {
		t.Fatalf("Infected = %d, want 2", e.Infected())
	}
}

func TestMonotonicityProperty(t *testing.T) {
	r := rng.New(9)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 8 + int(rr.Intn(16))
		e := NewTwoWay(n, rr.Intn(n))
		prev := e.Infected()
		for i := 0; i < 200; i++ {
			a, b := r.Pair(n)
			e.Interact(a, b)
			if e.Infected() < prev {
				return false
			}
			prev = e.Infected()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerIntegration steps the epidemic through sim.Steps one
// interaction at a time, polling correctness after each: the epidemic
// completes and, once complete, stays complete (exactly one flip).
func TestRunnerIntegration(t *testing.T) {
	e := NewTwoWay(64, 0)
	sched := rng.New(11)
	correct, flips := e.Correct(), 0
	for i := 0; i < 1<<20; i++ {
		sim.Steps(e, sched, 1)
		if now := e.Correct(); now != correct {
			correct = now
			flips++
		}
	}
	if !correct {
		t.Fatal("epidemic did not complete")
	}
	if flips != 1 {
		t.Fatalf("epidemic correctness should flip exactly once, got %d", flips)
	}
}

func TestMinEpidemic(t *testing.T) {
	m := NewMin([]int64{5, 3, 9, 3, 7})
	if m.GlobalMin() != 3 {
		t.Fatalf("GlobalMin = %d, want 3", m.GlobalMin())
	}
	if m.Correct() {
		t.Fatal("should not be correct initially")
	}
	r := rng.New(12)
	for i := 0; i < 1000 && !m.Correct(); i++ {
		a, b := r.Pair(m.N())
		m.Interact(a, b)
	}
	if !m.Correct() {
		t.Fatal("min epidemic did not converge")
	}
	for i := 0; i < m.N(); i++ {
		if m.Value(i) != 3 {
			t.Fatalf("agent %d holds %d, want 3", i, m.Value(i))
		}
	}
}

func TestMinEpidemicAllEqual(t *testing.T) {
	m := NewMin([]int64{4, 4, 4})
	if !m.Correct() {
		t.Fatal("uniform values should be immediately correct")
	}
	m.Interact(0, 1) // no-op path
	if !m.Correct() {
		t.Fatal("no-op interaction broke correctness")
	}
}

func TestMinEpidemicPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMin(nil)
}

// TestMinNeverIncreasesProperty: under arbitrary interactions, no agent's
// value may ever increase (values only move toward the minimum).
func TestMinNeverIncreasesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + int(r.Intn(12))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(100))
		}
		m := NewMin(vals)
		for i := 0; i < 300; i++ {
			a, b := r.Pair(n)
			va, vb := m.Value(a), m.Value(b)
			m.Interact(a, b)
			if m.Value(a) > va || m.Value(b) > vb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
