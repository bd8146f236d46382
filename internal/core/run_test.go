// run_test.go covers System.Run over ElectLeader_r at the edges of its two
// stop conditions: an already-stable start, a confirmation window landing
// exactly on the interaction budget, a window larger than the budget
// (unconfirmable by construction), and budget exhaustion.
package core_test

import (
	"testing"

	"sspp"
	"sspp/internal/core"
)

// newStableProtocol returns a protocol in a safe configuration (identity
// ranking, all verifiers): output-correct now and forever.
func newStableProtocol(t *testing.T, n, r int) *core.Protocol {
	t.Helper()
	p := mustNew(t, n, r, core.WithSeed(1))
	for i := 0; i < n; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	if !p.Correct() {
		t.Fatal("forced identity ranking should be output-correct")
	}
	return p
}

// runToOutputStable runs p until exactly one leader has held for confirm
// interactions, within max interactions.
func runToOutputStable(t *testing.T, p *core.Protocol, seed, max, confirm uint64) sspp.Result {
	t.Helper()
	return run(t, p, sspp.Until(sspp.CorrectOutput), sspp.SchedulerSeed(seed),
		sspp.MaxInteractions(max), sspp.Confirm(confirm))
}

func TestRunToOutputStable(t *testing.T) {
	p := mustNew(t, 16, 8, core.WithSeed(31))
	res := runToOutputStable(t, p, 32, stabilizationBound(16, 8), 200)
	if !res.Stabilized {
		t.Fatal("output never stabilized")
	}
	if !p.Correct() {
		t.Fatal("reported stable but incorrect")
	}
	if res.StabilizedAt == 0 {
		t.Fatal("fresh rankers cannot be correct at t=0")
	}
}

func TestRunToOutputStableBudgetExhausted(t *testing.T) {
	p := mustNew(t, 16, 8, core.WithSeed(33))
	if res := runToOutputStable(t, p, 34, 100, 1_000_000); res.Stabilized {
		t.Fatal("cannot confirm a window longer than the budget")
	}
}

func TestRunToSafeSetImmediate(t *testing.T) {
	p := mustNew(t, 8, 2)
	for i := 0; i < 8; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	res := runToSafeSet(t, p, 1, 100)
	if !res.Stabilized || res.Interactions != 0 {
		t.Fatalf("already-safe config: %+v", res)
	}
}

func TestRunToSafeSetBudgetExhausted(t *testing.T) {
	p := mustNew(t, 16, 4, core.WithSeed(35))
	res := runToSafeSet(t, p, 36, 50)
	if res.Stabilized {
		t.Fatal("50 interactions cannot suffice")
	}
	if res.Interactions != 50 {
		t.Fatalf("Interactions = %d, want 50", res.Interactions)
	}
}

// TestRunToOutputStableAlreadyStable starts from a correct configuration:
// the final correct stretch begins at interaction 0.
func TestRunToOutputStableAlreadyStable(t *testing.T) {
	const n, r = 16, 4
	res := runToOutputStable(t, newStableProtocol(t, n, r), 2, 10_000, 500)
	if !res.Stabilized {
		t.Fatal("stable start not confirmed")
	}
	if res.StabilizedAt != 0 {
		t.Fatalf("StabilizedAt = %d, want 0 for an already-stable start", res.StabilizedAt)
	}
}

// TestRunToOutputStableExactBudgetBoundary confirms the window exactly when
// the budget is consumed: with correctness holding from interaction 0,
// max == confirm must succeed and max == confirm-1 must fail.
func TestRunToOutputStableExactBudgetBoundary(t *testing.T) {
	const n, r = 16, 4
	const confirm = 1024
	res := runToOutputStable(t, newStableProtocol(t, n, r), 3, confirm, confirm)
	if !res.Stabilized {
		t.Fatalf("confirmation window ending exactly at the budget must succeed")
	}
	if res.StabilizedAt != 0 {
		t.Fatalf("StabilizedAt = %d, want 0", res.StabilizedAt)
	}
	if res := runToOutputStable(t, newStableProtocol(t, n, r), 3, confirm-1, confirm); res.Stabilized {
		t.Fatal("budget one short of the confirmation window must fail")
	}
}

// TestRunToOutputStableMaxBelowConfirm can never confirm: the window exceeds
// the whole budget, whatever the configuration does.
func TestRunToOutputStableMaxBelowConfirm(t *testing.T) {
	const n, r = 16, 4
	res := runToOutputStable(t, newStableProtocol(t, n, r), 4, 100, 10_000)
	if res.Stabilized {
		t.Fatal("max < confirm must never confirm")
	}
	if res.StabilizedAt != 0 || res.Interactions != 100 {
		t.Fatalf("unconfirmed run = %+v, want StabilizedAt 0 after 100 interactions", res)
	}
}

// TestRunToOutputStableFromTriggered exercises the normal path: from a
// triggered configuration the output stabilizes strictly after interaction 0
// and within the Theorem 1.1 budget.
func TestRunToOutputStableFromTriggered(t *testing.T) {
	const n, r = 16, 4
	p := mustNew(t, n, r, core.WithSeed(5))
	for i := 0; i < n; i++ {
		p.ForceTriggered(i)
	}
	res := runToOutputStable(t, p, 6, 4_000_000, uint64(20*n))
	if !res.Stabilized {
		t.Fatal("no output stabilization from a triggered configuration")
	}
	if res.StabilizedAt == 0 {
		t.Fatal("a triggered start cannot be output-correct at interaction 0")
	}
}

// TestRunToSafeSetAlreadySafe checks the zero-interaction fast path.
func TestRunToSafeSetAlreadySafe(t *testing.T) {
	const n, r = 16, 4
	res := runToSafeSet(t, newStableProtocol(t, n, r), 7, 1000)
	if !res.Stabilized || res.Interactions != 0 {
		t.Fatalf("run from a safe configuration = %+v, want 0 interactions, stabilized", res)
	}
}
