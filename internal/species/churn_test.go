// churn_test.go unit-tests the count-based churn surface: joins and leaves
// over the state multiset, the size-change bookkeeping (dense-table growth,
// sparse migration, shrink remaps), and the recorded-delta replay path —
// each sequence ending in a SelfCheck of every engine invariant.

package species

import (
	"strings"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/workload"
)

// toyChurn is a CIW-shaped churnable model: rank states in [1, n], clean
// joins at rank 1, "top" joins at the new maximum rank, and a shrink clamps
// stranded ranks to the new maximum.
func toyChurn(n int64) sim.CompactModel {
	m := toyDiagonal(int(n), n)
	size := int(n)
	m.Churn = &sim.CompactChurn{
		MinN: 2,
		Join: func(class string, n int, _ sim.CountView, _ *rng.PRNG) (uint64, error) {
			switch class {
			case "":
				return 1, nil
			case "top":
				return uint64(n), nil
			}
			return 0, &classError{class}
		},
		Rescale: func(n int) (uint64, func(uint64) uint64) {
			size = n
			max := uint64(n)
			return max + 1, func(key uint64) uint64 {
				if key > max {
					return max
				}
				return key
			}
		},
	}
	// React reads the live size through the closure so the diagonal rule
	// stays within [1, n] after churn.
	m.React = func(a, b uint64, _ *rng.PRNG) (uint64, uint64) {
		if a == b {
			return a, a%uint64(size) + 1
		}
		return a, b
	}
	return m
}

type classError struct{ class string }

func (e *classError) Error() string { return "species_test: unrealizable class " + e.class }

func mustSystem(t *testing.T, m sim.CompactModel) *System {
	t.Helper()
	s, err := NewSystem(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func selfCheck(t *testing.T, s *System) {
	t.Helper()
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnGate(t *testing.T) {
	bare := mustSystem(t, toyDiagonal(8, 16))
	if bare.CanChurn() {
		t.Fatal("model without churn hooks reports CanChurn")
	}
	if err := bare.Join("", rng.New(2)); err == nil {
		t.Fatal("Join accepted without churn hooks")
	}
	if err := bare.Leave(rng.New(2)); err == nil {
		t.Fatal("Leave accepted without churn hooks")
	}
	churny := mustSystem(t, toyChurn(16))
	if !churny.CanChurn() {
		t.Fatal("churnable model reports CanChurn false")
	}
	if minN, maxN := churny.ChurnBounds(); minN != 2 || maxN != 0 {
		t.Fatalf("bounds (%d, %d), want (2, 0)", minN, maxN)
	}
}

func TestJoinStateByClass(t *testing.T) {
	s := mustSystem(t, toyChurn(16))
	if err := s.Join("", rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if s.N() != 17 || s.Count(1) != 17 {
		t.Fatalf("after a clean join: n=%d, count(1)=%d", s.N(), s.Count(1))
	}
	// "top" joins at the post-join maximum rank — key 18 exists only because
	// Rescale grew the space first.
	if err := s.Join("top", rng.New(4)); err != nil {
		t.Fatal(err)
	}
	if s.N() != 18 || s.Count(18) != 1 {
		t.Fatalf("after a top join: n=%d, count(18)=%d", s.N(), s.Count(18))
	}
	if err := s.Join("bogus", rng.New(5)); err == nil {
		t.Fatal("unrealizable class accepted")
	}
	if s.N() != 18 {
		t.Fatalf("failed join changed n to %d", s.N())
	}
	selfCheck(t, s)
}

// TestRejectedChurnKeyLeavesSystemIntact: a join state or a recorded delta
// outside the rescaled state space is refused before anything changes —
// the population size, the counts and the model's own size state — so the
// system keeps stepping and churning as if the event had never fired.
func TestRejectedChurnKeyLeavesSystemIntact(t *testing.T) {
	m := toyChurn(4) // states in [1, 4], space 5
	join := m.Churn.Join
	m.Churn.Join = func(class string, n int, v sim.CountView, src *rng.PRNG) (uint64, error) {
		if class == "beyond" {
			return uint64(n) + 5, nil
		}
		return join(class, n, v, src)
	}
	s := mustSystem(t, m)
	s.BindSource(rng.New(14))
	intact := func(what string, wantN int) {
		t.Helper()
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if s.N() != wantN {
			t.Fatalf("after %s: n=%d, want %d", what, s.N(), wantN)
		}
		// The model's size state must match n again: React wraps the top
		// rank at that size, so a (top, top) pair must yield rank 1, not a
		// rank past n.
		top := uint64(wantN)
		var moves []workload.KeyDelta
		s.Each(func(key uint64, c int64) bool {
			take := min(c, 2-int64(len(moves)))
			moves = append(moves, workload.KeyDelta{Key: key, Delta: -take})
			return len(moves) < 2 && take < 2
		})
		moves = append(moves, workload.KeyDelta{Key: top, Delta: 2})
		if err := s.ApplyDeltas(moves); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		ones := s.Count(1)
		if err := s.ApplyPair(top, top); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if s.Count(1) != ones+1 {
			t.Fatalf("after %s: the top rank %d did not wrap to 1", what, top)
		}
	}

	if err := s.Join("beyond", rng.New(15)); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-space join accepted: %v", err)
	}
	intact("a refused join", 4)
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: s.stateOf(t), Delta: -1}, {Key: 9, Delta: 1}}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-space replacement delta accepted: %v", err)
	}
	intact("a refused replacement delta", 4)
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: s.stateOf(t), Delta: -1}, {Key: 2, Delta: 1}, {Key: 7, Delta: 1}}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-space growth delta accepted: %v", err)
	}
	intact("a refused growth delta", 4)
	if err := s.Join("top", rng.New(16)); err != nil {
		t.Fatal(err)
	}
	intact("a top join", 5)
}

// stateOf returns an occupied state of s.
func (s *System) stateOf(t *testing.T) uint64 {
	t.Helper()
	var key uint64
	found := false
	s.Each(func(k uint64, _ int64) bool {
		key, found = k, true
		return false
	})
	if !found {
		t.Fatal("no occupied state")
	}
	return key
}

// leaveKey returns the state key of the agent the next s.Leave(src)
// removes, replaying Leave's count-weighted draw on a copy of src.
func (s *System) leaveKey(src *rng.PRNG) uint64 {
	probe := *src
	u := int64(probe.Uint64n(uint64(s.N())))
	var key uint64
	s.Each(func(k uint64, c int64) bool {
		if u < c {
			key = k
			return false
		}
		u -= c
		return true
	})
	return key
}

func TestLeaveStateFollowsCounts(t *testing.T) {
	s := mustSystem(t, toyChurn(16))
	// Spread the population over three states, 10/4/2.
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: 1, Delta: -6}, {Key: 2, Delta: 4}, {Key: 3, Delta: 2}}); err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	for i := 0; i < 8; i++ {
		key := s.leaveKey(src)
		n, before := s.N(), s.Count(key)
		if err := s.Leave(src); err != nil {
			t.Fatal(err)
		}
		if s.N() != n-1 || s.Count(key) != before-1 {
			t.Fatalf("leave %d: n=%d, count(%d)=%d, want %d and %d", i, s.N(), key, s.Count(key), n-1, before-1)
		}
		selfCheck(t, s)
	}
	// Drain to one agent: the final leave must refuse.
	for s.N() > 1 {
		if err := s.Leave(rng.New(uint64(s.N()))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Leave(rng.New(7)); err == nil {
		t.Fatal("leave emptied the population")
	}
	selfCheck(t, s)
}

func TestShrinkClampsStrandedKeys(t *testing.T) {
	s := mustSystem(t, toyChurn(4)) // states live in [1, 4]
	// Move everyone to the maximum rank via recorded deltas, then shrink:
	// the stranded key 4 must merge into the new maximum 3.
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: 1, Delta: -4}, {Key: 4, Delta: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(rng.New(8)); err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 || s.Count(4) != 0 || s.Count(3) != 3 {
		t.Fatalf("after the shrink: n=%d, count(4)=%d, count(3)=%d", s.N(), s.Count(4), s.Count(3))
	}
	selfCheck(t, s)
}

func TestGrowSpaceMigratesToSparse(t *testing.T) {
	m := toyChurn(8)
	rescale := m.Churn.Rescale
	// A rescale past the dense bound must migrate the table to the hash map
	// without losing counts.
	m.Churn.Rescale = func(n int) (uint64, func(uint64) uint64) {
		space, remap := rescale(n)
		if n > 8 {
			space = maxDense + 1
		}
		return space, remap
	}
	s := mustSystem(t, m)
	if s.dense == nil {
		t.Fatal("system did not start dense")
	}
	if err := s.Join("", rng.New(9)); err != nil {
		t.Fatal(err)
	}
	if s.dense != nil || s.sparse == nil {
		t.Fatal("rescale past maxDense did not migrate to the sparse table")
	}
	if s.N() != 9 || s.Count(1) != 9 {
		t.Fatalf("after migration: n=%d, count(1)=%d", s.N(), s.Count(1))
	}
	selfCheck(t, s)
	// The migrated system keeps stepping and churning.
	s.BindSource(rng.New(10))
	s.StepMany(500)
	if err := s.Leave(rng.New(11)); err != nil {
		t.Fatal(err)
	}
	selfCheck(t, s)
}

func TestApplyDeltasValidation(t *testing.T) {
	s := mustSystem(t, toyChurn(4))
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: 1, Delta: -5}}); err == nil ||
		!strings.Contains(err.Error(), "removes") {
		t.Fatalf("overdraw accepted: %v", err)
	}
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: 1, Delta: -4}}); err == nil ||
		!strings.Contains(err.Error(), "population") {
		t.Fatalf("population drain accepted: %v", err)
	}
	if s.N() != 4 || s.Count(1) != 4 {
		t.Fatalf("rejected deltas mutated the system: n=%d, count(1)=%d", s.N(), s.Count(1))
	}
	// A replacement-shaped delta set: one agent moves state, n unchanged.
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: 1, Delta: -1}, {Key: 2, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || s.Count(1) != 3 || s.Count(2) != 1 {
		t.Fatalf("replacement deltas: n=%d, counts %d/%d", s.N(), s.Count(1), s.Count(2))
	}
	// A growth delta set: the key space must grow with n before the new
	// maximum-rank state is credited.
	if err := s.ApplyDeltas([]workload.KeyDelta{{Key: 5, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 || s.Count(5) != 1 {
		t.Fatalf("growth deltas: n=%d, count(5)=%d", s.N(), s.Count(5))
	}
	selfCheck(t, s)
}

// TestChurnSequenceKeepsInvariants soaks a mixed join/leave/step sequence
// and self-checks after every mutation — the unit-level analogue of the
// public cross-backend property test.
func TestChurnSequenceKeepsInvariants(t *testing.T) {
	s := mustSystem(t, toyChurn(32))
	s.BindSource(rng.New(12))
	src := rng.New(13)
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			if err := s.Join("", src); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.Join("top", src); err != nil {
				t.Fatal(err)
			}
		case 2, 3:
			if err := s.Leave(src); err != nil {
				t.Fatal(err)
			}
		}
		s.StepMany(50)
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after mutation %d: %v", i, err)
		}
	}
	if s.N() != 32 {
		t.Fatalf("balanced sequence drifted n to %d", s.N())
	}
}
