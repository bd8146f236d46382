// perf_bench_test.go holds the hot-path micro-benchmarks of the protocol
// layer: steady-state Interact cost and the safe-set polling predicate. Both
// must report 0 allocs/op in steady state — any regression shows up as a
// nonzero allocs/op column (the CI zero-alloc gate). Allocation pins for the
// warm species step and for New sit beside them. End-to-end time to the
// safe set is timed by the t1-agent workload of the benchmark in bench/.
package core

import (
	"fmt"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/species"
)

// BenchmarkInteractSteadyState measures one ElectLeader_r interaction on a
// stabilized (all-verifier) population under the uniform scheduler — the
// single hottest operation in the repository. Steady state must be
// allocation-free.
func BenchmarkInteractSteadyState(b *testing.B) {
	for _, bc := range []struct{ n, r int }{{64, 8}, {256, 64}} {
		b.Run(fmt.Sprintf("n=%d/r=%d", bc.n, bc.r), func(b *testing.B) {
			p, err := New(bc.n, bc.r, WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < bc.n; i++ {
				p.ForceVerifier(i, int32(i+1))
			}
			sched := rng.New(2)
			// Warm the scratch buffers and free lists before measuring.
			for i := 0; i < 4*bc.n; i++ {
				x, y := sched.Pair(bc.n)
				p.Interact(x, y)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y := sched.Pair(bc.n)
				p.Interact(x, y)
			}
		})
	}
}

// BenchmarkInSafeSetPoll measures the full safe-set predicate on a safe
// configuration — the poll System.Run executes every ⌈n/2⌉ interactions.
// It must be allocation-free.
func BenchmarkInSafeSetPoll(b *testing.B) {
	for _, bc := range []struct{ n, r int }{{64, 8}, {256, 64}} {
		b.Run(fmt.Sprintf("n=%d/r=%d", bc.n, bc.r), func(b *testing.B) {
			p, err := New(bc.n, bc.r, WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < bc.n; i++ {
				p.ForceVerifier(i, int32(i+1))
			}
			if !p.InSafeSet() {
				b.Fatal("configuration should be safe")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !p.InSafeSet() {
					b.Fatal("should be safe")
				}
			}
		})
	}
}

// TestInteractSteadyStateZeroAllocs pins the headline "0 allocs/op" claim as
// a hard test, not just a benchmark column someone has to read: a steady-state
// interaction on a stabilized population must not allocate. The hotpathalloc
// analyzer rejects the allocating constructs at compile time; this guard
// catches whatever slips past it (compiler escape-analysis regressions,
// allocations hidden behind non-annotated callees).
func TestInteractSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{64, 8}, {256, 64}} {
		t.Run(fmt.Sprintf("n=%d/r=%d", tc.n, tc.r), func(t *testing.T) {
			p, err := New(tc.n, tc.r, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				p.ForceVerifier(i, int32(i+1))
			}
			sched := rng.New(2)
			// Warm the scratch buffers and free lists before measuring.
			for i := 0; i < 4*tc.n; i++ {
				x, y := sched.Pair(tc.n)
				p.Interact(x, y)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				x, y := sched.Pair(tc.n)
				p.Interact(x, y)
			})
			if allocs != 0 {
				t.Fatalf("steady-state Interact allocated %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestInSafeSetPollZeroAllocs pins the other per-interaction-loop predicate:
// the safe-set poll System.Run executes every ⌈n/2⌉ interactions must not
// allocate on a safe configuration.
func TestInSafeSetPollZeroAllocs(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{64, 8}, {256, 64}} {
		t.Run(fmt.Sprintf("n=%d/r=%d", tc.n, tc.r), func(t *testing.T) {
			p, err := New(tc.n, tc.r, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				p.ForceVerifier(i, int32(i+1))
			}
			if !p.InSafeSet() {
				t.Fatal("configuration should be safe")
			}
			allocs := testing.AllocsPerRun(50, func() {
				if !p.InSafeSet() {
					t.Fatal("should be safe")
				}
			})
			if allocs != 0 {
				t.Fatalf("InSafeSet allocated %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestCompactSafeSetPollAllocs pins the species form of the same poll: on a
// safe configuration, the count-side safe set (one CountView pass, then the
// shared predicate) must not allocate either.
func TestCompactSafeSetPollAllocs(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{64, 8}, {256, 64}} {
		t.Run(fmt.Sprintf("n=%d/r=%d", tc.n, tc.r), func(t *testing.T) {
			p, err := New(tc.n, tc.r, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				p.ForceVerifier(i, int32(i+1))
			}
			m := newCompactModel(p)
			sp, err := species.NewSystem(m.model(p), 1)
			if err != nil {
				t.Fatal(err)
			}
			if !m.safeSet(sp) {
				t.Fatal("configuration should be safe")
			}
			allocs := testing.AllocsPerRun(50, func() {
				if !m.safeSet(sp) {
					t.Fatal("should be safe")
				}
			})
			if allocs != 0 {
				t.Fatalf("compact safe set allocated %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkInSafeSetPollUnsafe measures the predicate on a configuration that
// fails the cheap gates (a ranker present) — the common case during
// stabilization, which must short-circuit in O(1).
func BenchmarkInSafeSetPollUnsafe(b *testing.B) {
	const n, r = 256, 64
	p, err := New(n, r, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.InSafeSet() {
			b.Fatal("fresh rankers should not be safe")
		}
	}
}

// TestCompactStepZeroAllocs pins the warm species step of ElectLeader_r at
// zero allocations: once the table, the index and the free lists have grown
// to the run's working set, interning a fresh state moves the working
// copy's buffers into the table and the next copy pops recycled ones, so
// no reaction allocates.
func TestCompactStepZeroAllocs(t *testing.T) {
	const n, r = 4096, 16
	m, err := newCleanCompactModel(n, r, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := species.NewSystem(m.cleanModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sp.StepMany(20 * n)
	allocs := testing.AllocsPerRun(5, func() { sp.StepMany(1000) })
	if allocs != 0 {
		t.Fatalf("warm species step allocated %.1f times per 1000 interactions, want 0", allocs)
	}
}

// TestNewAllocsIndependentOfN pins New's allocation count as a constant:
// the rankers and their channels come from two slabs, so building a larger
// population allocates larger blocks, not more of them.
func TestNewAllocsIndependentOfN(t *testing.T) {
	count := func(n, r int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := New(n, r, WithSeed(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(64, 8), count(256, 64)
	if small != large || large > 32 {
		t.Fatalf("New allocated %.0f times at n=64 and %.0f at n=256, want one constant count of at most 32", small, large)
	}
}
