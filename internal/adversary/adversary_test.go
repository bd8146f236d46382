package adversary

import (
	"testing"

	"sspp/internal/core"
	"sspp/internal/rng"
)

func build(t *testing.T, n, r int, seed uint64) *core.Protocol {
	t.Helper()
	p, err := core.New(n, r, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDescribeAndClasses(t *testing.T) {
	if len(Classes()) != 12 {
		t.Fatalf("Classes() = %d entries", len(Classes()))
	}
	for _, c := range Classes() {
		if Describe(c) == "unknown class" {
			t.Errorf("class %q lacks a description", c)
		}
	}
	if Describe(Class("nope")) != "unknown class" {
		t.Fatal("unknown class must say so")
	}
}

func TestApplyUnknownClass(t *testing.T) {
	p := build(t, 8, 2, 1)
	if err := Apply(p, Class("nope"), rng.New(1)); err == nil {
		t.Fatal("unknown class must error")
	}
}

func TestClassShapes(t *testing.T) {
	const n, r = 16, 4
	rr := rng.New(7)

	t.Run("triggered", func(t *testing.T) {
		p := build(t, n, r, 1)
		if err := Apply(p, ClassTriggered, rr); err != nil {
			t.Fatal(err)
		}
		resetting, _, _ := p.Roles()
		if resetting != n {
			t.Fatalf("resetting = %d, want %d", resetting, n)
		}
	})

	t.Run("two-leaders", func(t *testing.T) {
		p := build(t, n, r, 2)
		if err := Apply(p, ClassTwoLeaders, rr); err != nil {
			t.Fatal(err)
		}
		if got := p.Leaders(); got != 2 {
			t.Fatalf("leaders = %d, want 2", got)
		}
		if p.CorrectRanking() {
			t.Fatal("two leaders cannot be a correct ranking")
		}
	})

	t.Run("no-leader", func(t *testing.T) {
		p := build(t, n, r, 3)
		if err := Apply(p, ClassNoLeader, rr); err != nil {
			t.Fatal(err)
		}
		if got := p.Leaders(); got != 0 {
			t.Fatalf("leaders = %d, want 0", got)
		}
	})

	t.Run("mixed-generations", func(t *testing.T) {
		p := build(t, n, r, 4)
		if err := Apply(p, ClassMixedGenerations, rr); err != nil {
			t.Fatal(err)
		}
		if !p.AllVerifiers() || !p.CorrectRanking() {
			t.Fatal("class must produce correctly ranked verifiers")
		}
		if len(p.Generations()) < 2 {
			t.Skip("random draw produced a single generation (rare)")
		}
	})

	t.Run("corrupt-messages", func(t *testing.T) {
		p := build(t, n, r, 5)
		if err := Apply(p, ClassCorruptMessages, rr); err != nil {
			t.Fatal(err)
		}
		if !p.CorrectRanking() {
			t.Fatal("corruption must not touch the ranking")
		}
	})

	t.Run("stuck-rankers", func(t *testing.T) {
		p := build(t, n, r, 6)
		if err := Apply(p, ClassStuckRankers, rr); err != nil {
			t.Fatal(err)
		}
		_, rankers, _ := p.Roles()
		if rankers != n {
			t.Fatalf("rankers = %d, want %d", rankers, n)
		}
	})
}

func TestExpectsRankingPreserved(t *testing.T) {
	if !ExpectsRankingPreserved(ClassCorruptMessages) || !ExpectsRankingPreserved(ClassDuplicateMessages) {
		t.Fatal("message-layer faults must preserve the ranking")
	}
	if ExpectsRankingPreserved(ClassTwoLeaders) {
		t.Fatal("rank faults cannot preserve the ranking")
	}
}
