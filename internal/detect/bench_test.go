package detect

import (
	"testing"

	"sspp/internal/rng"
)

// warmGroup returns a (256, 64) harness whose first group (agents 0–63,
// ranks 1–64) has run warm in-group interactions, and the schedule that
// drove it. After 1 000, about 31 per agent, the rows have spread but most
// agents have not yet refreshed their signature, so a row is one content
// run, as in a t1 trial. After 10 000 a row holds several content runs
// that interleave with the partner's.
func warmGroup(tb testing.TB, warm int) (*Harness, *rng.PRNG) {
	tb.Helper()
	const n, r = 256, 64
	h, err := NewHarness(n, r, nil, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	sched := rng.New(2)
	for k := 0; k < warm; k++ {
		a, b := sched.Pair(r)
		h.Interact(a, b)
	}
	if h.AnyTop() {
		tb.Fatal("false ⊤ while warming")
	}
	return h, sched
}

// BenchmarkDetectInteract measures one DetectCollision_r interaction between
// two agents of one warm group at (n, r) = (256, 64): g = 64 rows of about
// 2g messages each, through the duplicate check, the consistency checks,
// the message updates and BalanceLoad. "fresh" starts from one-run rows,
// "mixed" from interleaved runs (warmGroup).
func BenchmarkDetectInteract(b *testing.B) {
	for _, bc := range []struct {
		name string
		warm int
	}{{"fresh", 1_000}, {"mixed", 10_000}} {
		b.Run(bc.name, func(b *testing.B) {
			h, sched := warmGroup(b, bc.warm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y := sched.Pair(64)
				h.Interact(x, y)
			}
		})
	}
}

// TestInteractSteadyStateNoAlloc pins Interact to zero allocations once a
// group's rows and the shared Scratch have grown.
func TestInteractSteadyStateNoAlloc(t *testing.T) {
	h, sched := warmGroup(t, 10_000)
	allocs := testing.AllocsPerRun(1000, func() {
		x, y := sched.Pair(64)
		h.Interact(x, y)
	})
	if allocs != 0 {
		t.Fatalf("Interact allocates %v times per call in steady state, want 0", allocs)
	}
}
