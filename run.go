// run.go implements the run engine of the public API: System.Run is the one
// loop that polls a stop condition, configured by RunOption values, with
// first-class stop conditions, confirmation windows, observation hooks,
// mid-run transient faults, and cancellation. It deals interactions through
// sim.Steps, the one stepping kernel, one chunk per poll interval.

package sspp

import (
	"context"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/workload"
)

// Condition is a first-class stop predicate over a System. The built-in
// conditions are SafeSet (Lemma 6.1 configuration-level stabilization) and
// CorrectOutput (exactly one leader); build custom ones with ConditionFunc.
type Condition struct {
	name  string
	holds func(*System) bool
	// cadence is the default polling interval in interactions for a
	// population of n agents (the historical per-condition poll rates,
	// which the recorded goldens pin).
	cadence func(n int) uint64
	// safeSet marks the built-in SafeSet condition, which Run replaces with
	// CorrectOutput + Confirm for protocols without a safe set.
	safeSet bool
}

// String returns the condition's name (also reported in Result.Condition).
func (c Condition) String() string { return c.name }

// SafeSet holds when the configuration is in (the checkable core of) the
// protocol's safe set — for ElectLeader_r the safe set of Lemma 6.1:
// correct ranking, all verifiers, coherent generations — correct forever.
// This is the paper's stabilization notion and the default stop condition
// of Run. For protocols without a checkable safe set (no safe-set
// capability, e.g. the loosely-stabilizing baseline), Run substitutes
// CorrectOutput with a confirmation window of 20·n interactions (unless
// Confirm was given), and Result.Condition reports "correct-output".
var SafeSet = Condition{
	name:    "safe-set",
	holds:   (*System).InSafeSet,
	cadence: func(n int) uint64 { return uint64(n/2 + 1) },
	safeSet: true,
}

// CorrectOutput holds when exactly one agent outputs "leader". Unlike
// SafeSet it is not closed under further interactions, so it is normally
// combined with Confirm to measure output-level stabilization.
var CorrectOutput = Condition{
	name:    "correct-output",
	holds:   (*System).Correct,
	cadence: func(n int) uint64 { return uint64(n/4 + 1) },
}

// ConditionFunc builds a custom stop condition from a predicate. The
// predicate is polled on the condition cadence (override with PollEvery);
// it must not mutate the system.
func ConditionFunc(name string, holds func(*System) bool) Condition {
	return Condition{
		name:    name,
		holds:   holds,
		cadence: func(n int) uint64 { return uint64(n/2 + 1) },
	}
}

// MaxParallelTime holds once the system's parallel time (System.ParallelTime
// — the native event time under the continuous clocks, interactions over the
// live population size under the discrete one) reaches pt units. The time is
// system-lifetime, not per-Run, so a fresh system runs for pt units while a
// resumed one runs only the remainder. Like every condition it is polled on
// the condition cadence, so the overshoot resolution is one poll.
func MaxParallelTime(pt float64) Condition {
	return Condition{
		name:    "max-parallel-time",
		holds:   func(s *System) bool { return s.ParallelTime() >= pt },
		cadence: func(n int) uint64 { return uint64(n/2 + 1) },
	}
}

// runSpec is the resolved configuration of one Run call.
type runSpec struct {
	cond      Condition
	max       uint64
	confirm   uint64
	poll      uint64
	schedSeed uint64
	seedSet   bool
	sched     Scheduler
	obsEvery  uint64
	observe   func(Snapshot)
	ctx       context.Context
	// events is the scheduled disruption timeline: InjectTransientAt bursts
	// plus everything the attached workload compiles to.
	events []workload.Event
	// wl is the attached workload, compiled against (n, budget) when Run
	// starts.
	wl *Workload
	// awaitEvents keeps the run alive until every scheduled event has fired,
	// even when the stop condition already holds — workload runs measure
	// recovery after each event. The legacy InjectTransientAt contract
	// ("faults scheduled past the stop do not fire") stays untouched: only
	// WithWorkload sets this.
	awaitEvents bool
	// traceDst, when non-nil, receives the recorded workload trace.
	traceDst **WorkloadTrace
}

// RunOption configures a single System.Run call.
type RunOption func(*runSpec)

// Until sets the stop condition (default SafeSet).
func Until(c Condition) RunOption {
	return func(r *runSpec) { r.cond = c }
}

// MaxInteractions bounds the run (0, the default, means DefaultBudget).
func MaxInteractions(m uint64) RunOption {
	return func(r *runSpec) { r.max = m }
}

// Confirm requires the stop condition to have held continuously for at least
// window interactions before the run stops (default 0: stop at the first
// poll at which the condition holds). Result.StabilizedAt reports the start
// of the confirmed stretch.
func Confirm(window uint64) RunOption {
	return func(r *runSpec) { r.confirm = window }
}

// PollEvery overrides the condition-polling cadence in interactions
// (default: the stop condition's own cadence — ⌈n/2⌉+1 for SafeSet and
// custom conditions, ⌈n/4⌉+1 for CorrectOutput).
func PollEvery(cadence uint64) RunOption {
	return func(r *runSpec) {
		if cadence > 0 {
			r.poll = cadence
		}
	}
}

// SchedulerSeed runs under the uniform random scheduler of the paper's
// model, drawn from the given seed (default: Config.Seed + 1). Ignored when
// WithScheduler is given.
func SchedulerSeed(seed uint64) RunOption {
	return func(r *runSpec) { r.schedSeed = seed; r.seedSet = true }
}

// WithScheduler runs under an arbitrary Scheduler (non-uniform, batched,
// replayed, ...), overriding SchedulerSeed.
func WithScheduler(s Scheduler) RunOption {
	return func(r *runSpec) { r.sched = s }
}

// Observe invokes fn with a Snapshot every cadence interactions (0 means n)
// and exactly once more with the final state when the run ends — whether it
// stops on the condition, exhausts the budget, or is cancelled. When the end
// falls on a cadence boundary the final observation is delivered exactly
// once, not twice. A nil fn is ignored.
func Observe(cadence uint64, fn func(Snapshot)) RunOption {
	return func(r *runSpec) {
		if fn != nil {
			r.observe = fn
			r.obsEvery = cadence
		}
	}
}

// InjectTransientAt corrupts k uniformly chosen agents in place (the
// mid-run transient-fault model, see System.InjectTransient) once the run
// reaches interaction t, counted from the start of this Run call. Faults
// scheduled past the point at which the run stops do not fire. The option
// may be repeated to schedule several bursts. Scheduling faults on a
// protocol without the injectable capability fails the run up front
// (Result.Err, zero interactions) rather than silently skipping the burst.
func InjectTransientAt(t uint64, k int, seed uint64) RunOption {
	return func(r *runSpec) {
		r.events = append(r.events, workload.Event{At: t, Kind: workload.KindTransient, K: k, Seed: seed})
	}
}

// WithWorkload attaches a workload — a schedule of timed disruption phases
// (transient bursts, adversary re-injections, churn arrival processes) —
// compiled against the population size and the interaction budget when the
// run starts, validated against the protocol's capabilities up front, and
// fired at exact interaction counts. Unlike plain InjectTransientAt, a
// workload run keeps going until every scheduled event has fired (within the
// budget), and Result.Events reports each event with the time at which the
// stop condition was next observed to hold — recovery after each disruption,
// not just after the last. Churn phases require the complete topology.
func WithWorkload(w *Workload) RunOption {
	return func(r *runSpec) {
		if w != nil {
			r.wl = w
			r.awaitEvents = true
		}
	}
}

// RecordTrace captures everything the run does — the dealt interaction
// pairs, per-agent state keys when the protocol exposes them, and every
// fired event with its exact effect on the state multiset — into a versioned
// WorkloadTrace written to *dst when the run ends. A recorded trace replays
// bit-exactly via System.ReplayTrace on both backends. Recording requires
// the agent backend (the species backend has no interaction pairs to record)
// and the complete topology.
func RecordTrace(dst **WorkloadTrace) RunOption {
	return func(r *runSpec) { r.traceDst = dst }
}

// WithContext makes the run cancellable: the context is checked at every
// condition poll and, when cancelled, the run stops with Result.Err set to
// the context's error and Stabilized false.
func WithContext(ctx context.Context) RunOption {
	return func(r *runSpec) {
		if ctx != nil {
			r.ctx = ctx
		}
	}
}

// Result reports a Run outcome.
type Result struct {
	// Interactions is the total interactions executed by the call.
	Interactions uint64
	// Stabilized reports whether the stop condition was reached (and, with
	// Confirm, had held for the full window).
	Stabilized bool
	// ParallelTime is the paper's time measure at StabilizedAt, counted from
	// the start of this Run call (-1 when not stabilized): the time the
	// system's clock accrued between the two instants. Under the discrete
	// clock it is interactions over the live population size, one segment
	// per size (exactly StabilizedAt/n while the population stays put, also
	// on a system that has run before); under the continuous clocks it is
	// the native event time of the Poisson process.
	ParallelTime float64
	// StabilizedAt is the interaction count at which the final satisfied
	// stretch of the condition began (0 when not stabilized). Without
	// Confirm it equals Interactions; with Confirm it is the start of the
	// confirmed window. Its resolution is the polling cadence.
	StabilizedAt uint64
	// Condition names the stop condition the run used.
	Condition string
	// Events reports every scheduled workload event (in firing order) with
	// its per-event recovery observation; nil for runs without a schedule.
	// It is a pointer so Result stays comparable with == for schedule-free
	// runs; read it through EventOutcomes.
	Events *EventList
	// Err is non-nil when the run was cancelled via WithContext or a
	// scheduled event failed to apply.
	Err error
}

// EventList is the per-event outcome list of a workload run.
type EventList []EventOutcome

// EventOutcomes returns the scheduled events' outcomes (nil for runs without
// a schedule).
func (r Result) EventOutcomes() []EventOutcome {
	if r.Events == nil {
		return nil
	}
	return *r.Events
}

// EventOutcome is one scheduled event's outcome within a Run.
type EventOutcome struct {
	// At is the interaction count the event was scheduled for.
	At uint64
	// Kind is the event kind's wire name (transient, inject, join, leave).
	Kind string
	// K is the burst size of transient events.
	K int
	// Class is the adversary class of inject and join events.
	Class string
	// N is the population size after the event fired.
	N int
	// Fired reports whether the run reached the event before stopping.
	Fired bool
	// Recovered reports whether the stop condition was observed to hold at
	// some poll after the event fired.
	Recovered bool
	// RecoveredAt is the interaction count of that first poll (resolution:
	// the polling cadence). Zero when not recovered.
	RecoveredAt uint64
}

// Run executes the system under a scheduler until the stop condition is
// reached (confirmed, if requested) or the interaction budget is exhausted.
// With no options it runs to the safe set of Lemma 6.1 under the uniform
// scheduler seeded with Config.Seed+1, within DefaultBudget interactions.
//
// The engine polls the condition on a fixed cadence, so the reported times
// have that resolution; observation hooks and scheduled transient faults
// fire at their exact interaction counts and never perturb the scheduler
// stream, keeping runs bit-for-bit reproducible for identical seeds.
func (s *System) Run(opts ...RunOption) Result {
	spec := runSpec{cond: SafeSet, ctx: context.Background()}
	for _, o := range opts {
		o(&spec)
	}
	n0 := s.N()
	n := n0
	// Safe-set fallback: protocols without a checkable safe set are measured
	// at the output level instead — correct output held through a
	// confirmation window (20·n interactions unless Confirm was given).
	// Defaulted quantities derived from n (this window, the poll cadence,
	// the observation cadence) track the LIVE population: churn events
	// recompute them below, so a grown population is not measured on the
	// starting size's scales. Explicit Confirm/PollEvery/Observe cadences
	// stay exactly as given.
	confirmDefaulted := false
	if spec.cond.safeSet {
		if _, ok := sim.AsSafeSetter(s.proto); !ok {
			spec.cond = CorrectOutput
			if spec.confirm == 0 {
				spec.confirm = uint64(20 * n)
				confirmDefaulted = true
			}
		}
	}
	max := spec.max
	if max == 0 {
		max = s.DefaultBudget()
	}
	// Compile the attached workload against the starting population and the
	// resolved budget and merge it with any InjectTransientAt bursts.
	if spec.wl != nil {
		spec.events = append(spec.events, workload.Compile(spec.wl.phases, n0, max)...)
	}
	workload.SortEvents(spec.events)
	pollDefaulted := spec.poll == 0
	poll := spec.poll
	if pollDefaulted {
		poll = spec.cond.cadence(n)
	}
	sched := spec.sched
	if sched == nil {
		seed := spec.schedSeed
		if !spec.seedSet {
			seed = s.cfg.Seed + 1
		}
		sched = rng.New(seed)
	}
	// Everything is checked up front, so a run never fires a disruption its
	// protocol cannot absorb or silently mis-models its schedule: admission
	// of the schedule's fault and churn events and of trace recording, the
	// schedule's population trajectory against the churn bounds, and the
	// scheduler (bind).
	err := admit(s.cfg, s.proto, use{
		faults: workload.UsesFaults(spec.events),
		churn:  workload.UsesChurn(spec.events),
		record: spec.traceDst != nil,
	})
	if err == nil && len(spec.events) > 0 {
		err = workload.Validate(spec.events, n0, workloadCaps(s.proto, s.ProtocolName(), true))
	}
	if err == nil {
		sched, err = s.bind(sched)
	}
	if err != nil {
		return Result{Condition: spec.cond.name, ParallelTime: -1, Err: err}
	}
	// A trace recorder wraps the scheduler and records every dealt pair.
	var tracer *traceRecorder
	stepSched := sched
	if spec.traceDst != nil {
		tracer = newTraceRecorder(s, sched)
		stepSched = tracer
	}
	obsDefaulted := spec.observe != nil && spec.obsEvery == 0
	obsEvery := spec.obsEvery
	if obsDefaulted {
		obsEvery = uint64(n)
	}

	const never = ^uint64(0)
	res := Result{Condition: spec.cond.name, ParallelTime: -1}
	outcomes := make([]EventOutcome, len(spec.events))
	for i, ev := range spec.events {
		outcomes[i] = EventOutcome{At: ev.At, Kind: ev.Kind.String(), K: ev.K, Class: ev.Class}
	}
	var pending []int
	var t, since uint64
	fi := 0
	clock := s.timeline()      // the clock bind has just settled
	start := sim.MarkOf(clock) // Result.ParallelTime counts from here
	var ptSince float64        // run-relative parallel time at the moment since was last set
	// fire applies every event scheduled for the current interaction count,
	// in order (leaves before joins within an instant); a failing event
	// aborts the run with Result.Err.
	fire := func() bool {
		from := fi
		for fi < len(spec.events) && spec.events[fi].At == t {
			ev := spec.events[fi]
			var before map[uint64]int64
			if tracer != nil {
				before = tracer.census()
			}
			if err := s.applyWorkloadEvent(ev); err != nil {
				res.Err = err
				break
			}
			if nn := s.N(); nn != n {
				n = nn
				// Re-derive every defaulted n-anchored cadence from the live
				// population. Anchoring them at n₀ forever would confirm a 10×
				// grown population over a window 10× too short (and poll /
				// observe it 10× too often); the already-scheduled nextPoll and
				// nextObs marks stand — only the spacing after them changes.
				if confirmDefaulted {
					spec.confirm = uint64(20 * n)
				}
				if pollDefaulted {
					poll = spec.cond.cadence(n)
				}
				if obsDefaulted {
					obsEvery = uint64(n)
				}
			}
			outcomes[fi].Fired = true
			outcomes[fi].N = n
			pending = append(pending, fi)
			if tracer != nil {
				tracer.event(ev, before, n)
			}
			fi++
		}
		if fi > from {
			// Re-rate the clock once the instant's events have fired, so
			// every interaction contributes 1/n_live, and a leave paired
			// with a join at one instant leaves its segment open.
			clock.SetN(n)
		}
		return res.Err == nil
	}
	// Events at t = 0 strike the starting configuration, before the initial
	// condition poll.
	ok := fire()
	held := spec.cond.holds(s)
	markRecovered := func() {
		for _, i := range pending {
			outcomes[i].Recovered = true
			outcomes[i].RecoveredAt = t
		}
		pending = pending[:0]
	}
	if held {
		markRecovered()
	}
	lastObs := never

	finish := func() Result {
		res.Interactions = t
		if res.Err == nil && held && t-since >= spec.confirm {
			res.Stabilized = true
			res.StabilizedAt = since
			res.ParallelTime = ptSince
		}
		if len(outcomes) > 0 {
			el := EventList(outcomes)
			res.Events = &el
		}
		if spec.observe != nil && lastObs != t {
			spec.observe(s.Snapshot())
		}
		if tracer != nil && res.Err == nil {
			*spec.traceDst = tracer.finish(t)
		}
		return res
	}

	if !ok {
		return finish()
	}
	if err := spec.ctx.Err(); err != nil {
		res.Err = err
		return finish()
	}
	if held && spec.confirm == 0 && (!spec.awaitEvents || fi == len(spec.events)) {
		return finish()
	}

	nextPoll := poll
	nextObs := never
	if spec.observe != nil {
		nextObs = obsEvery
	}
	for t < max {
		next := max
		if nextPoll < next {
			next = nextPoll
		}
		if nextObs < next {
			next = nextObs
		}
		if fi < len(spec.events) && spec.events[fi].At < next {
			next = spec.events[fi].At
		}
		s.step(stepSched, next-t)
		t = next
		if !fire() {
			break
		}
		if t == nextObs {
			spec.observe(s.Snapshot())
			lastObs = t
			nextObs += obsEvery
		}
		if t == nextPoll || t == max {
			now := spec.cond.holds(s)
			if now {
				markRecovered()
			}
			if now != held {
				if now {
					since = t
					ptSince = sim.Since(clock, start)
				}
				held = now
			}
			if err := spec.ctx.Err(); err != nil {
				res.Err = err
				break
			}
			if held && t-since >= spec.confirm && (!spec.awaitEvents || fi == len(spec.events)) {
				break
			}
			if t == nextPoll {
				nextPoll += poll
			}
		}
	}
	return finish()
}

// Step executes k scheduler-driven interactions with the given scheduler
// seed stream, with no condition polling: uniformly random pairs on the
// complete topology, uniformly random interaction-graph edges otherwise.
// Repeated calls with the same *System advance the same configuration; pass
// different seeds to explore schedules. A population of fewer than two
// agents, which only a failed workload join leaves behind, is not stepped
// (StepSched reports it).
func (s *System) Step(schedulerSeed uint64, k uint64) {
	// A uniform stream passes the scheduler check, so the only error is the
	// population too small to pair that the doc comment names.
	_ = s.StepSched(rng.New(schedulerSeed), k)
}

// StepSched executes exactly k interactions under an arbitrary Scheduler,
// with no condition polling. It checks the scheduler as Run does and
// returns the error without stepping: on a non-complete topology a uniform
// scheduler (NewUniform) is re-bound to sample the system's edge set, and a
// scheduler dealing pairs from [n]² is rejected rather than silently
// simulating the complete graph; species-backed systems accept only uniform
// schedulers (NewUniform; agent identities do not exist in species form).
func (s *System) StepSched(sched Scheduler, k uint64) error {
	sched, err := s.bind(sched)
	if err != nil {
		return err
	}
	s.step(sched, k)
	return nil
}
