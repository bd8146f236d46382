// capability.go defines the optional capability interfaces a Protocol may
// implement on top of the minimal N/Interact/Correct contract. The run
// engine and the public facade never require them: they type-assert at the
// call site and degrade gracefully (e.g. the safe-set stop condition falls
// back to confirmed correct output for protocols without a safe set). This
// is what lets one engine drive every protocol — the paper's ElectLeader_r,
// the comparison baselines, and user-supplied protocols alike.

package sim

import "sspp/internal/rng"

// Ranker is implemented by protocols whose output is a full ranking of the
// population (leader election by rank 1), not just a leader bit.
type Ranker interface {
	// RankOutput returns agent i's current rank output (1-based; 0 or an
	// out-of-range value when the agent has not committed to a rank).
	RankOutput(i int) int32
	// CorrectRanking reports whether the rank outputs form a permutation of
	// [1, n].
	CorrectRanking() bool
}

// LeaderIndexer is implemented by protocols that can name the index of the
// unique leader agent (ok false while zero or several agents output
// "leader"). It is a per-agent identity surface: count-based backends do not
// implement it, and the engine's Leader() degrades to (-1, false) there.
type LeaderIndexer interface {
	LeaderIndex() (int, bool)
}

// SafeSetter is implemented by protocols with a checkable safe set: a set of
// configurations that is closed under every interaction and in which the
// output is correct — correct forever, the paper's notion of stabilization
// (Lemma 6.1). Protocols without this capability are measured at the output
// level instead (correct output held through a confirmation window).
type SafeSetter interface {
	InSafeSet() bool
}

// Injectable is implemented by protocols that support adversarial state
// rewrites: whole-population starting configurations drawn from a named
// class, and mid-run transient corruption of k agents. Self-stabilizing
// protocols recover from both; the engine uses the capability for
// adversarial Ensemble grids and scheduled in-run fault bursts.
type Injectable interface {
	// Inject rewrites the current configuration according to the named
	// adversary class (internal/adversary class names), drawing any needed
	// randomness from src. It returns an error when the class is unknown or
	// not realizable for this protocol.
	Inject(class string, src *rng.PRNG) error
	// InjectTransient corrupts k uniformly chosen agents in place with
	// random type-valid states, returning the victim indices.
	InjectTransient(k int, src *rng.PRNG) []int
}

// Snapshot is a generic point-in-time view of a population: the fields a
// protocol cannot fill (e.g. role counts for protocols without roles) stay
// zero. Interactions is filled by the engine, the rest by the protocol's
// Snapshotter implementation (or by generic fallbacks).
type Snapshot struct {
	// Interactions is the total interactions executed so far.
	Interactions uint64
	// ParallelTime is the parallel time elapsed so far.
	ParallelTime float64
	// Resetting, Ranking, Verifying are role counts (ElectLeader_r only).
	Resetting, Ranking, Verifying int
	// Leaders is the number of agents currently outputting "leader".
	Leaders int
	// HardResets, SoftResets, Tops are cumulative event counts.
	HardResets, SoftResets, Tops uint64
	// InSafeSet reports whether the configuration is in the safe set (always
	// false for protocols without one).
	InSafeSet bool
}

// Snapshotter is implemented by protocols that can export a richer state
// summary than the generic Correct/Leaders fallback.
type Snapshotter interface {
	// SnapshotInto fills every field of s the protocol knows about; the
	// engine pre-fills Interactions and ParallelTime.
	SnapshotInto(s *Snapshot)
}

// Churnable is implemented by protocols that support population churn:
// agents joining and leaving mid-run (the dynamic half of the robustness
// story — self-stabilization under ongoing disruption, not just after a
// single burst). Agent-level protocols and count-based backends implement
// it alike: a join enters in an adversary-class-chosen state, and a leave
// removes a victim the protocol draws itself, uniformly over the live
// agents (count-weighted over states in species form). The engine applies
// the leaves of a same-instant event group before its joins, so
// replacement-churn protocols (ChurnBounds returning (n, n)) see each
// departure paired with an arrival.
type Churnable interface {
	// Join adds one agent in the state the adversary class names (""
	// selects the protocol's canonical clean join state), drawing randomness
	// from src. Classes not realizable as a join state return an error.
	Join(class string, src *rng.PRNG) error
	// Leave removes one uniformly chosen live agent, drawing the victim
	// from src.
	Leave(src *rng.PRNG) error
	// ChurnBounds returns the population sizes the protocol supports: churn
	// schedules must keep n within [minN, maxN] (maxN 0 means unbounded).
	// Equal bounds declare replacement churn only (leaves paired with joins
	// at the same instant).
	ChurnBounds() (minN, maxN int)
}

// StateKeyer is implemented by agent-level protocols whose per-agent state
// round-trips through the species-form key encoding of their CompactModel.
// The workload tracer uses it to record pre-interaction state pairs and
// per-event count deltas, which is what makes a recorded workload replay
// bit-exactly on the count-based backend.
type StateKeyer interface {
	// StateKey returns agent i's state in the species key encoding.
	StateKey(i int) uint64
}

// CountView is a read-only view of a population represented as a multiset of
// states (the species form): state keys with their agent counts. Predicates
// supplied through CompactModel receive one to inspect the configuration
// without materializing per-agent state.
type CountView interface {
	// N returns the population size (the sum of all counts).
	N() int
	// Occupied returns the number of states with a positive count.
	Occupied() int
	// Count returns the number of agents currently in state key (0 when the
	// state is unoccupied).
	Count(key uint64) int64
	// Each calls fn for every occupied state until fn returns false. The
	// iteration order is unspecified and must not be relied on.
	Each(fn func(key uint64, count int64) bool)
}

// CompactModel is a protocol described in species form: dynamics over opaque
// uint64 state keys instead of indexed agents. Because the population model
// is symmetric — the uniform scheduler picks agents, not identities, and the
// transition depends only on the two states — the multiset of states is a
// Markov chain of its own, and a count-based engine (internal/species) can
// run it with per-interaction cost depending on the number of occupied
// states, not on n. Protocols whose per-state structure is too rich for a
// uint64 intern their states behind the keys (the model owns the table).
type CompactModel struct {
	// StateSpace, when positive, declares that every key the model ever
	// produces lies in [0, StateSpace): the engine then uses dense arrays
	// instead of a hash map for state lookup.
	StateSpace uint64
	// Diagonal declares that ordered pairs of distinct states never change
	// state (the protocol reacts only on the diagonal, like CIW's (k, k)
	// rule). The engine then skips runs of silent interactions in one
	// geometric draw instead of sampling them individually.
	Diagonal bool
	// Deterministic declares that React never draws from src: the successor
	// states are a pure function of the ordered state pair. τ-leaping
	// requires it — a reaction channel's effect is probed once per leap and
	// applied as a batched count delta, which is only sound when every
	// firing of the channel has the identical effect.
	Deterministic bool
	// Init returns the initial configuration as parallel state/count slices
	// (counts positive, keys distinct, counts summing to the population
	// size). It captures the instance the model was derived from, so a
	// species run starts exactly where the agent-level instance stood.
	Init func() (keys []uint64, counts []int64)
	// React applies the transition function to the ordered state pair
	// (a initiates, b responds) and returns the successor states, drawing
	// any randomness from src.
	React func(a, b uint64, src *rng.PRNG) (uint64, uint64)
	// Leader reports whether agents in state key output "leader". Required
	// unless Correct is provided.
	Leader func(key uint64) bool
	// Rank returns the rank output of state key (0 when uncommitted); nil
	// when the protocol has no ranking output.
	Rank func(key uint64) int32
	// Correct, when non-nil, overrides the default output predicate
	// (exactly one agent in a leader state).
	Correct func(v CountView) bool
	// SafeSet, when non-nil, reports whether the configuration is in the
	// protocol's safe set; the species system then exposes the safe-set
	// capability.
	SafeSet func(v CountView) bool
	// Churn, when non-nil, declares that the model supports population churn
	// (joins and leaves changing n mid-run); the species system then exposes
	// the Churnable capability.
	Churn *CompactChurn
	// Release, when non-nil, is called by the engine after a state's count
	// returns to zero (never mid-transition: only once the full interaction
	// or churn event has settled). Models that intern rich states behind
	// their keys use it to evict dead table entries and recycle the key —
	// without it, a protocol whose reachable state space is effectively
	// unbounded (ElectLeader_r's timers and message multisets) would grow
	// its intern table linearly with the interaction count. After Release,
	// the model may hand the same key out again for a different state, so
	// the engine must not cache released keys.
	Release func(key uint64)
}

// CompactChurn is the churn declaration of a CompactModel: how joins pick
// their state, and how the key space rescales when the population size
// changes (e.g. CIW's rank keys live in [1, n], so a shrink must clamp
// stranded out-of-range ranks for the protocol to stay live).
type CompactChurn struct {
	// MinN and MaxN bound the population sizes the model supports (MaxN 0
	// means unbounded); churn schedules are validated against them.
	MinN, MaxN int
	// Join returns the state key of an agent joining under the named
	// adversary class ("" selects the clean join state). n is the population
	// size after the join; v views the configuration before it (for classes
	// that copy an existing agent's state).
	Join func(class string, n int, v CountView, src *rng.PRNG) (uint64, error)
	// Rescale, when non-nil, is called whenever the population size changes:
	// it returns the new key-space bound (for dense-table growth) and an
	// optional remap merging keys that the new size makes invalid (nil when
	// every existing key stays valid). It must also update any internal
	// population-size state the model's React closure reads.
	Rescale func(n int) (stateSpace uint64, remap func(uint64) uint64)
}

// Compactable is implemented by protocols that can describe themselves as a
// CompactModel, unlocking the count-based species backend for population
// sizes far beyond what one-struct-per-agent storage reaches.
type Compactable interface {
	Compact() CompactModel
}

// CountBased is implemented by count-based backends (internal/species) that
// draw their own interaction pairs by sampling states from counts. Agent
// identities do not exist for them: the engine must not feed them pairs from
// a non-uniform scheduler, and instead binds the uniform stream and steps
// them in bulk.
type CountBased interface {
	// BindSource sets the randomness stream used for state-pair sampling
	// (the engine passes its uniform scheduler stream).
	BindSource(src *rng.PRNG)
	// StepMany executes k interactions of the uniform population model.
	StepMany(k uint64)
}

// ContinuousStepper is implemented by count-based backends that can run
// under the continuous-time clock natively: they accrue parallel time
// inside their own stepping (exponential holding times at rate n/2,
// following the live population size) and, when leaping is enabled and the
// model is deterministic, batch whole reaction bundles per draw
// (τ-leaping). The engine switches the backend into continuous mode once,
// before stepping, and reads the native clock back through ParallelTime.
type ContinuousStepper interface {
	// StartContinuous switches the backend to the continuous clock, drawing
	// holding times from timeSrc (a stream dedicated to the clock), with
	// τ-leaping enabled when leap is true and the model supports it.
	StartContinuous(timeSrc *rng.PRNG, leap bool)
	// ParallelTime returns the accumulated parallel time.
	ParallelTime() float64
}

// Timed is the scheduler-side capability behind native event times: a
// scheduler (or replayed recording) that knows the parallel time at which
// its last pair was dealt reports it here. While bound under a continuous
// clock it owns the run's time (BindClock), and a Recorder wrapping one
// stores per-event times in its Recording (wire version 2).
type Timed interface {
	// Time returns the parallel time of the most recently dealt pair (the
	// start time before any pair is dealt).
	Time() float64
}

// Capability dispatch helpers. Everything outside this file asks for a
// capability through one of these instead of type-asserting against the
// interface directly (enforced by the capdispatch analyzer, DESIGN.md §11).
// That keeps this file the single place that knows the full capability
// surface: adding or renaming a capability is a change here, not a grep for
// scattered assertions — and wrapper types that forward capabilities have
// one canonical list to mirror.

// AsRanker reports whether v exposes the full-ranking output capability.
func AsRanker(v any) (Ranker, bool) { r, ok := v.(Ranker); return r, ok }

// AsLeaderIndexer reports whether v can name the unique leader agent's
// index (a per-agent identity surface; absent on count-based backends).
func AsLeaderIndexer(v any) (LeaderIndexer, bool) { l, ok := v.(LeaderIndexer); return l, ok }

// AsSafeSetter reports whether v exposes a checkable safe set.
func AsSafeSetter(v any) (SafeSetter, bool) { s, ok := v.(SafeSetter); return s, ok }

// AsInjectable reports whether v supports adversarial state rewrites.
func AsInjectable(v any) (Injectable, bool) { i, ok := v.(Injectable); return i, ok }

// AsSnapshotter reports whether v can export a rich state summary.
func AsSnapshotter(v any) (Snapshotter, bool) { s, ok := v.(Snapshotter); return s, ok }

// AsChurnable reports whether v supports population churn. Count-based
// backends carry the Churnable method set on every system and say through
// CanChurn whether their model declares churn hooks; this is the one place
// that reads it.
func AsChurnable(v any) (Churnable, bool) {
	c, ok := v.(Churnable)
	if g, gated := v.(interface{ CanChurn() bool }); ok && gated {
		ok = g.CanChurn()
	}
	return c, ok
}

// AsStateKeyer reports whether v exposes the species key encoding of its
// per-agent state.
func AsStateKeyer(v any) (StateKeyer, bool) { s, ok := v.(StateKeyer); return s, ok }

// AsCompactable reports whether v can describe itself as a CompactModel.
func AsCompactable(v any) (Compactable, bool) { c, ok := v.(Compactable); return c, ok }

// AsCountBased reports whether v is a count-based backend that samples its
// own interaction pairs.
func AsCountBased(v any) (CountBased, bool) { c, ok := v.(CountBased); return c, ok }

// AsContinuousStepper reports whether v can run under the continuous-time
// clock natively (accruing parallel time inside its own stepping).
func AsContinuousStepper(v any) (ContinuousStepper, bool) {
	c, ok := v.(ContinuousStepper)
	return c, ok
}

// AsTimed reports whether v times its own pairs. It sees through Recorders:
// one is timed exactly when the scheduler it wraps is.
func AsTimed(v any) (Timed, bool) {
	if r, ok := v.(interface{ recorder() *Recorder }); ok {
		v = r.recorder().timed
	}
	t, ok := v.(Timed)
	return t, ok
}
