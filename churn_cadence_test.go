// churn_cadence_test.go is the regression gate for the n₀-anchoring bug in
// the run engine: quantities the engine derives from the population size by
// default — the safe-set fallback's confirmation window (20·n), the
// condition-poll cadence, and the observation cadence — must be re-derived
// from the LIVE population at churn event boundaries, while explicitly
// given values (Confirm, PollEvery, Observe cadence) stay exactly as given.
// Before the fix, a run that started at n₀=10³ and grew to n=10⁴ confirmed
// the grown population over the starting size's 20·n₀ window — 10× too
// short — and observed it 10× too often.

package sspp

import (
	"fmt"
	"testing"

	"sspp/internal/rng"
)

// churnStubProto is a minimal churnable protocol for exercising the run
// engine's cadence bookkeeping in isolation: interactions are no-ops, the
// output is correct from the start (so the confirmation window alone decides
// when the run stops), and there is no safe-set capability (so Until(SafeSet)
// takes the fallback path that installs the defaulted 20·n window). Joins
// and leaves just adjust the population count.
type churnStubProto struct {
	n int
}

func (p *churnStubProto) N() int            { return p.n }
func (p *churnStubProto) Interact(a, b int) {}
func (p *churnStubProto) Correct() bool     { return true }

func (p *churnStubProto) Join(class string, src *rng.PRNG) error {
	if class != "" {
		return fmt.Errorf("churn stub: unknown join class %q", class)
	}
	p.n++
	return nil
}

func (p *churnStubProto) Leave(src *rng.PRNG) error {
	if p.n <= 2 {
		return fmt.Errorf("churn stub: population at minimum")
	}
	p.n--
	return nil
}

func (p *churnStubProto) ChurnBounds() (minN, maxN int) { return 2, 0 }

// TestDefaultedCadencesTrackLiveN grows the population 10× with a one-shot
// join storm and pins, on the same schedule:
//
//   - the defaulted confirmation window is 20·(live n), not 20·n₀: the run
//     must execute ≈20·10⁴ interactions, not ≈20·10³;
//   - an explicit Confirm(w) is untouched by churn: the paired run stops
//     after ≈w interactions exactly as before the storm;
//   - the defaulted observation cadence stretches from n₀ to the live n:
//     the snapshot count stays ≈20·n/(10·n₀) ≈ 21, not ≈200.
//
// The condition holds from the very first poll (the stub is always correct),
// so Result.Interactions is the confirmation window plus at most two poll
// cadences of slack — a tight, deterministic pin on the window actually used.
func TestDefaultedCadencesTrackLiveN(t *testing.T) {
	const (
		n0      = 1_000
		joins   = 9 * n0 // live population after the storm: 10·n₀ = 10⁴
		liveN   = n0 + joins
		stormAt = 100
	)
	run := func(t *testing.T, observe func(Snapshot), opts ...RunOption) Result {
		t.Helper()
		sys, err := NewCustom(&churnStubProto{n: n0})
		if err != nil {
			t.Fatal(err)
		}
		wl := NewWorkload(PopulationStep(stormAt, joins, Adversary(""), 7))
		all := append([]RunOption{
			SchedulerSeed(1),
			MaxInteractions(500_000),
			WithWorkload(wl),
		}, opts...)
		if observe != nil {
			all = append(all, Observe(0, observe))
		}
		res := sys.Run(all...)
		if res.Err != nil {
			t.Fatalf("run failed: %v", res.Err)
		}
		if !res.Stabilized || res.Condition != "correct-output" {
			t.Fatalf("run = %+v, want stabilized via the correct-output fallback", res)
		}
		if got := sys.N(); got != liveN {
			t.Fatalf("live population %d after the storm, want %d", got, liveN)
		}
		return res
	}

	// Defaulted window: the storm fires at t=100, before the first poll, so
	// the recomputed window 20·liveN governs the whole run. The condition
	// holds from t=0 (StabilizedAt 0) and the run ends at the first poll
	// ≥ 20·liveN; the post-storm defaulted poll cadence is liveN/4+1, so the
	// overshoot is bounded by one pre-storm plus one post-storm cadence.
	snapshots := 0
	res := run(t, func(Snapshot) { snapshots++ })
	const wantWindow = uint64(20 * liveN)
	if res.StabilizedAt != 0 {
		t.Fatalf("StabilizedAt = %d, want 0 (condition held from the start)", res.StabilizedAt)
	}
	if slack := uint64(n0/4 + 1 + liveN/4 + 1); res.Interactions < wantWindow ||
		res.Interactions > wantWindow+slack {
		t.Fatalf("defaulted confirm ran %d interactions, want 20·(live n)=%d (+ ≤%d poll slack); "+
			"a value near %d means the window stayed anchored at n₀",
			res.Interactions, wantWindow, slack, 20*n0)
	}
	// Defaulted observation cadence: n₀ until the storm, live n after — one
	// snapshot at t=10³, then every 10⁴, plus the final one. Anchored at n₀
	// it would be ≈200.
	if snapshots > 50 {
		t.Fatalf("observed %d snapshots over %d interactions; the defaulted cadence "+
			"stayed anchored at n₀=%d instead of stretching to the live n=%d",
			snapshots, res.Interactions, n0, liveN)
	}

	// Explicit window: churn must not touch it. The same storm, but with
	// Confirm(20·n₀) given by the caller — the run stops after ≈20·n₀
	// interactions even though the population is 10× larger.
	const explicit = uint64(20 * n0)
	res = run(t, nil, Confirm(explicit))
	if slack := uint64(n0/4 + 1 + liveN/4 + 1); res.Interactions < explicit ||
		res.Interactions > explicit+slack {
		t.Fatalf("explicit Confirm(%d) ran %d interactions, want the window honored as given (+ ≤%d poll slack)",
			explicit, res.Interactions, slack)
	}
}
