package loadbalance

import (
	"testing"
	"testing/quick"

	"sspp/internal/rng"
)

func TestInteractSplitsCeilFloor(t *testing.T) {
	p := New([]int64{5, 2, 0})
	p.Interact(0, 1)
	if p.Load(0) != 4 || p.Load(1) != 3 {
		t.Fatalf("split = (%d,%d), want (4,3)", p.Load(0), p.Load(1))
	}
	p.Interact(2, 0) // initiator gets the ceil
	if p.Load(2) != 2 || p.Load(0) != 2 {
		t.Fatalf("split = (%d,%d), want (2,2)", p.Load(2), p.Load(0))
	}
}

func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + int(r.Intn(13))
		tokens := make([]int64, n)
		for i := range tokens {
			tokens[i] = int64(r.Intn(50))
		}
		p := New(tokens)
		for i := 0; i < 500; i++ {
			a, b := r.Pair(n)
			p.Interact(a, b)
			if !p.CheckConservation() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscrepancyNonIncreasingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + int(r.Intn(13))
		tokens := make([]int64, n)
		for i := range tokens {
			tokens[i] = int64(r.Intn(100))
		}
		p := New(tokens)
		prev := p.Discrepancy()
		for i := 0; i < 300; i++ {
			a, b := r.Pair(n)
			p.Interact(a, b)
			d := p.Discrepancy()
			if d > prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPointMass(t *testing.T) {
	p := NewPointMass(8, 64)
	if p.Total() != 64 || p.Load(0) != 64 || p.Load(1) != 0 {
		t.Fatalf("unexpected point mass: %+v", p)
	}
	if p.Discrepancy() != 64 {
		t.Fatalf("Discrepancy = %d, want 64", p.Discrepancy())
	}
}

func TestNewValidation(t *testing.T) {
	for name, tokens := range map[string][]int64{
		"empty":    nil,
		"negative": {1, -1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			New(tokens)
		})
	}
}

func TestCorrect(t *testing.T) {
	if !New([]int64{2, 1, 2}).Correct() {
		t.Fatal("discrepancy 1 should be correct")
	}
	if New([]int64{3, 1}).Correct() {
		t.Fatal("discrepancy 2 should not be correct")
	}
}
