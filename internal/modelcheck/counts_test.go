package modelcheck

import (
	"strings"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

// model is a deterministic species form over react.
func model(react func(a, b uint64) (uint64, uint64)) sim.CompactModel {
	return sim.CompactModel{Deterministic: true, React: func(a, b uint64, _ *rng.PRNG) (uint64, uint64) { return react(a, b) }}
}

// TestCheckCountsEpidemic: under a one-way epidemic over keys {0, 1} and
// 3 agents, the 4 multisets form a chain toward all-infected; the
// all-healthy one is silent and cannot reach it.
func TestCheckCountsEpidemic(t *testing.T) {
	m := model(func(a, b uint64) (uint64, uint64) { return max(a, b), max(a, b) })
	all := func(v sim.CountView) bool { return v.Count(1) == int64(v.N()) }
	rep, err := CheckCounts(m, 3, 0, 1, all)
	if err != nil {
		t.Fatal(err)
	}
	want := CountReport{Configurations: 4, Silent: 2, Target: 1, TargetSilent: true, Unreached: 1}
	if rep != want {
		t.Fatalf("%+v, want %+v", rep, want)
	}
}

// TestCheckCountsLargeKeys: a configuration holds one count per key of the
// domain, not per key value, so a domain far from 0 costs no more.
func TestCheckCountsLargeKeys(t *testing.T) {
	const lo = 1 << 40
	m := model(func(a, b uint64) (uint64, uint64) { return max(a, b), max(a, b) })
	all := func(v sim.CountView) bool { return v.Count(lo+1) == int64(v.N()) }
	rep, err := CheckCounts(m, 3, lo, lo+1, all)
	if err != nil {
		t.Fatal(err)
	}
	if want := (CountReport{Configurations: 4, Silent: 2, Target: 1, TargetSilent: true, Unreached: 1}); rep != want {
		t.Fatalf("%+v, want %+v", rep, want)
	}
}

// TestCheckCountsSwapIsNotSilent: a swap keeps the multiset but changes
// agents, so only configurations whose present pairs are all (k, k) are
// silent, and a swap is no edge toward the target.
func TestCheckCountsSwapIsNotSilent(t *testing.T) {
	m := model(func(a, b uint64) (uint64, uint64) { return b, a })
	mixed := func(v sim.CountView) bool { return v.Occupied() == 2 }
	rep, err := CheckCounts(m, 2, 0, 1, mixed)
	if err != nil {
		t.Fatal(err)
	}
	want := CountReport{Configurations: 3, Silent: 2, Target: 1, Unreached: 2}
	if rep != want {
		t.Fatalf("%+v, want %+v", rep, want)
	}
}

// TestCheckCountsView: the view a target sees agrees with itself on every
// configuration: N is the sum of Each, Occupied its length, Count its
// counts and 0 outside the domain, and Each stops when asked.
func TestCheckCountsView(t *testing.T) {
	m := model(func(a, b uint64) (uint64, uint64) { return a, b })
	seen := 0
	check := func(v sim.CountView) bool {
		seen++
		sum, occupied, calls := 0, 0, 0
		v.Each(func(key uint64, c int64) bool {
			if key < 2 || key > 4 || c < 1 || v.Count(key) != c {
				t.Fatalf("Each yielded key %d count %d (Count %d)", key, c, v.Count(key))
			}
			sum += int(c)
			occupied++
			return true
		})
		v.Each(func(uint64, int64) bool { calls++; return false })
		if sum != v.N() || occupied != v.Occupied() || calls != 1 || v.Count(1) != 0 || v.Count(5) != 0 {
			t.Fatalf("view disagrees: sum %d N %d, occupied %d Occupied %d, stopped after %d", sum, v.N(), occupied, v.Occupied(), calls)
		}
		return true
	}
	rep, err := CheckCounts(m, 4, 2, 4, check)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Configurations != 15 || seen != 15 || rep.Silent != 15 || rep.Unreached != 0 {
		t.Fatalf("%+v after %d views", rep, seen)
	}
}

// TestCheckCountsRejects: a nondeterministic model, a space out of range
// and a React product outside the key domain are errors.
func TestCheckCountsRejects(t *testing.T) {
	id := model(func(a, b uint64) (uint64, uint64) { return a, b })
	always := func(sim.CountView) bool { return true }
	random := id
	random.Deterministic = false
	for _, tc := range []struct {
		name   string
		m      sim.CompactModel
		n      int
		lo, hi uint64
	}{
		{"nondeterministic", random, 3, 0, 1},
		{"one agent", id, 1, 0, 1},
		{"256 agents", id, 256, 0, 1},
		{"empty domain", id, 3, 2, 1},
		{"huge domain", id, 2, 0, 1 << 40},
		{"too many configurations", id, 30, 0, 29},
	} {
		if _, err := CheckCounts(tc.m, tc.n, tc.lo, tc.hi, always); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	escape := model(func(a, b uint64) (uint64, uint64) { return a, b + 1 })
	if _, err := CheckCounts(escape, 2, 0, 1, always); err == nil || !strings.Contains(err.Error(), "leaves the key domain") {
		t.Fatalf("a key outside the domain: %v", err)
	}
}
