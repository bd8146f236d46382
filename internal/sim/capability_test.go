// capability_test.go checks the As* dispatch helpers: a value carrying the
// full capability surface is found by every helper, and a bare value by
// none. The helpers are one-liners, but they are the single dispatch point
// the capdispatch analyzer funnels every assertion through (DESIGN.md §11),
// so a signature drift between an interface and its helper must fail here
// rather than at a distant call site.

package sim

import (
	"testing"

	"sspp/internal/graph"
	"sspp/internal/rng"
)

// allCaps implements every optional capability with no-op bodies.
type allCaps struct{}

func (allCaps) N() int                               { return 2 }
func (allCaps) Interact(_, _ int)                    {}
func (allCaps) Correct() bool                        { return true }
func (allCaps) RankOutput(int) int32                 { return 1 }
func (allCaps) CorrectRanking() bool                 { return true }
func (allCaps) LeaderIndex() (int, bool)             { return 0, true }
func (allCaps) InSafeSet() bool                      { return true }
func (allCaps) Inject(string, *rng.PRNG) error       { return nil }
func (allCaps) InjectTransient(int, *rng.PRNG) []int { return nil }
func (allCaps) SnapshotInto(*Snapshot)               {}
func (allCaps) Join(string, *rng.PRNG) error         { return nil }
func (allCaps) Leave(*rng.PRNG) error                { return nil }
func (allCaps) ChurnBounds() (int, int)              { return 2, 0 }
func (allCaps) StateKey(int) uint64                  { return 0 }
func (allCaps) Compact() CompactModel                { return CompactModel{} }
func (allCaps) BindSource(*rng.PRNG)                 {}
func (allCaps) StepMany(uint64)                      {}
func (allCaps) StartContinuous(*rng.PRNG, bool)      {}
func (allCaps) ParallelTime() float64                { return 0 }

func TestCapabilityHelpers(t *testing.T) {
	probes := []struct {
		name string
		ok   func(v any) bool
	}{
		{"ranker", func(v any) bool { _, ok := AsRanker(v); return ok }},
		{"leader-indexer", func(v any) bool { _, ok := AsLeaderIndexer(v); return ok }},
		{"safe-setter", func(v any) bool { _, ok := AsSafeSetter(v); return ok }},
		{"injectable", func(v any) bool { _, ok := AsInjectable(v); return ok }},
		{"snapshotter", func(v any) bool { _, ok := AsSnapshotter(v); return ok }},
		{"churnable", func(v any) bool { _, ok := AsChurnable(v); return ok }},
		{"state-keyer", func(v any) bool { _, ok := AsStateKeyer(v); return ok }},
		{"compactable", func(v any) bool { _, ok := AsCompactable(v); return ok }},
		{"count-based", func(v any) bool { _, ok := AsCountBased(v); return ok }},
		{"continuous-stepper", func(v any) bool { _, ok := AsContinuousStepper(v); return ok }},
	}
	full := allCaps{}
	var none struct{}
	for _, p := range probes {
		if !p.ok(full) {
			t.Errorf("%s: helper does not find the capability on a full implementation", p.name)
		}
		if p.ok(&none) {
			t.Errorf("%s: helper claims the capability on a bare value", p.name)
		}
	}
}

// gatedChurn carries the Churnable method set and declares through CanChurn
// whether it really churns, the way a count-based backend does.
type gatedChurn struct {
	allCaps
	can bool
}

func (g gatedChurn) CanChurn() bool { return g.can }

// TestAsChurnableReadsTheChurnGate: a value whose CanChurn reports false is
// not churnable, whatever its method set.
func TestAsChurnableReadsTheChurnGate(t *testing.T) {
	for _, can := range []bool{false, true} {
		if _, got := AsChurnable(gatedChurn{can: can}); got != can {
			t.Errorf("AsChurnable with CanChurn %v = %v", can, got)
		}
	}
}

// TestAsTimedSeesThroughRecorders: the time-source helper reports a
// Recorder as timed exactly when the scheduler it wraps (at any depth) is.
func TestAsTimedSeesThroughRecorders(t *testing.T) {
	g, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	timed := NewNextReaction(g, rng.New(1), 0)
	for _, c := range []struct {
		name  string
		sched any
		want  bool
	}{
		{"uniform", rng.New(1), false},
		{"recorder(uniform)", NewRecorder(rng.New(1)), false},
		{"recorder(recorder(uniform))", NewRecorder(NewRecorder(rng.New(1))), false},
		{"next-reaction", timed, true},
		{"recorder(next-reaction)", NewRecorder(timed), true},
		{"recorder(recorder(next-reaction))", NewRecorder(NewRecorder(timed)), true},
		{"time-keeper", NewTimeKeeper(rng.New(1), 4), true},
	} {
		if _, got := AsTimed(c.sched); got != c.want {
			t.Errorf("AsTimed(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
