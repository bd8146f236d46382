// workload.go is the public surface of the workload layer
// (internal/workload): time-varying schedules of mid-run disruption —
// transient fault bursts, whole-population adversary re-injections, and
// population churn under configurable arrival processes — attached to a Run
// with WithWorkload, plus the versioned trace format that makes any recorded
// workload replay bit-exactly across protocols and backends.

package sspp

import (
	"fmt"
	"io"
	"sort"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/workload"
)

// Workload is a schedule of timed disruption phases, compiled against the
// population size and the interaction budget when the run starts. Build one
// with NewWorkload from the phase constructors below; attach it with the
// WithWorkload run option.
type Workload struct {
	phases []workload.Phase
}

// WorkloadPhase is one phase of a Workload: a one-shot event or a whole
// arrival process.
type WorkloadPhase struct {
	phase workload.Phase
}

// NewWorkload assembles a workload from phases. The compiled schedule is
// sorted by firing time; events sharing an instant fire consecutively with
// no interactions in between, leaves before joins.
func NewWorkload(phases ...WorkloadPhase) *Workload {
	w := &Workload{phases: make([]workload.Phase, 0, len(phases))}
	for _, p := range phases {
		if p.phase != nil {
			w.phases = append(w.phases, p.phase)
		}
	}
	return w
}

// uses reports the workload's static capability footprint — whether its
// phases can emit fault events and churn events — without expanding any
// arrival process (ensemble grid validation runs before any trial exists).
// A nil workload uses nothing.
func (w *Workload) uses() (faults, churn bool) {
	if w == nil {
		return false, false
	}
	return workload.PhasesUse(w.phases)
}

// TransientBurst corrupts k uniformly chosen agents in place at interaction
// t (the InjectTransient fault model as a workload phase).
func TransientBurst(t uint64, k int, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.OneShot{Ev: workload.Event{At: t, Kind: workload.KindTransient, K: k, Seed: seed}}}
}

// Reinjection rewrites the whole configuration according to the adversary
// class at interaction t — a mid-run re-injection, the strongest scheduled
// fault.
func Reinjection(t uint64, class Adversary, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.OneShot{Ev: workload.Event{At: t, Kind: workload.KindInject, Class: string(class), Seed: seed}}}
}

// JoinAt adds one agent at interaction t, entering in the class-chosen state
// ("" selects the protocol's canonical clean join state).
func JoinAt(t uint64, class Adversary, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.OneShot{Ev: workload.Event{At: t, Kind: workload.KindJoin, Class: string(class), Seed: seed}}}
}

// LeaveAt removes one uniformly chosen agent at interaction t.
func LeaveAt(t uint64, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.OneShot{Ev: workload.Event{At: t, Kind: workload.KindLeave, Seed: seed}}}
}

// ReplacementChurn is a Poisson churn process keeping n constant: arrivals
// come with exponential gaps at an expected rate of `rate` events per n
// interactions (i.e. per unit of parallel time) from start until end (end 0
// means the run budget), and each arrival is a leave paired with a join at
// the same instant — the only churn shape replacement-only protocols
// (electleader) accept, and the fixed-capacity model of real deployments.
func ReplacementChurn(start, end uint64, rate float64, class Adversary, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.Poisson{Start: start, End: end, Rate: rate, Replace: true, Class: string(class), Seed: seed}}
}

// JoinLeaveChurn is a Poisson churn process with a drifting population: each
// arrival is a join with probability joinFrac and a leave otherwise. The
// schedule is validated against the protocol's churn bounds up front.
func JoinLeaveChurn(start, end uint64, rate, joinFrac float64, class Adversary, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.Poisson{Start: start, End: end, Rate: rate, JoinFrac: joinFrac, Class: string(class), Seed: seed}}
}

// ChurnBursts is a periodic churn process: every `every` interactions from
// start until end (end 0 means the run budget), `leaves` agents leave and
// `joins` agents join, all at the same instant.
func ChurnBursts(start, end, every uint64, joins, leaves int, class Adversary, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.Bursts{Start: start, End: end, Every: every, Joins: joins, Leaves: leaves, Class: string(class), Seed: seed}}
}

// PopulationStep is a one-shot population step at interaction t: delta
// agents join (delta > 0) or leave (delta < 0) at one instant.
func PopulationStep(t uint64, delta int, class Adversary, seed uint64) WorkloadPhase {
	return WorkloadPhase{workload.Step{At: t, Delta: delta, Class: string(class), Seed: seed}}
}

// applyWorkloadEvent fires one scheduled event against the running protocol,
// dispatching on its capabilities: joins and leaves go through the churnable
// capability, the fault kinds through the injectable one. Validation has
// already guaranteed the capability exists.
func (s *System) applyWorkloadEvent(ev workload.Event) error {
	src := rng.New(ev.Seed)
	switch ev.Kind {
	case workload.KindTransient:
		_, err := s.injectTransientWith(ev.K, src)
		return err
	case workload.KindInject:
		return s.injectWith(Adversary(ev.Class), src)
	case workload.KindJoin, workload.KindLeave:
		ch, ok := sim.AsChurnable(s.proto)
		if !ok {
			return fmt.Errorf("sspp: protocol %q does not support churn", s.ProtocolName())
		}
		if ev.Kind == workload.KindJoin {
			return ch.Join(ev.Class, src)
		}
		return ch.Leave(src)
	default:
		return fmt.Errorf("sspp: unknown workload event kind %q", ev.Kind)
	}
}

// traceRecorder accumulates a WorkloadTrace during a Run: the dealt pairs,
// the pre-interaction state keys (when the protocol exposes them), and every
// fired event's census diff.
type traceRecorder struct {
	s      *System
	sched  Scheduler
	keyer  sim.StateKeyer
	proto  string
	n0     int
	pairs  []int32
	keys   []uint64
	events []workload.TraceEvent
}

func newTraceRecorder(s *System, sched Scheduler) *traceRecorder {
	r := &traceRecorder{s: s, sched: sched, proto: s.ProtocolName(), n0: s.N()}
	r.keyer, _ = sim.AsStateKeyer(s.proto)
	return r
}

// Pair deals the next interaction from the wrapped scheduler and records
// it with the agents' pre-interaction state keys, so a traced run steps
// through the same sim.Steps kernel as an untraced one.
func (r *traceRecorder) Pair(n int) (a, b int) {
	a, b = r.sched.Pair(n)
	r.pairs = append(r.pairs, int32(a), int32(b))
	if r.keyer != nil {
		r.keys = append(r.keys, r.keyer.StateKey(a), r.keyer.StateKey(b))
	}
	return a, b
}

// census snapshots the population's state multiset (nil when the protocol
// has no state-key capability; the trace then replays on the agent backend
// only).
func (r *traceRecorder) census() map[uint64]int64 {
	if r.keyer == nil {
		return nil
	}
	m := make(map[uint64]int64, 64)
	for i := 0; i < r.s.N(); i++ {
		m[r.keyer.StateKey(i)]++
	}
	return m
}

// event records one fired event as the census diff it caused.
func (r *traceRecorder) event(ev workload.Event, before map[uint64]int64, nAfter int) {
	te := workload.TraceEvent{Event: ev, NAfter: nAfter}
	if r.keyer != nil {
		after := r.census()
		for k, c := range after {
			if d := c - before[k]; d != 0 {
				te.Deltas = append(te.Deltas, workload.KeyDelta{Key: k, Delta: d})
			}
		}
		for k, c := range before {
			if _, live := after[k]; !live {
				te.Deltas = append(te.Deltas, workload.KeyDelta{Key: k, Delta: -c})
			}
		}
		sort.Slice(te.Deltas, func(i, j int) bool { return te.Deltas[i].Key < te.Deltas[j].Key })
	}
	r.events = append(r.events, te)
}

func (r *traceRecorder) finish(steps uint64) *WorkloadTrace {
	return &WorkloadTrace{tr: &workload.Trace{
		Version:  workload.TraceVersion,
		Protocol: r.proto,
		N:        r.n0,
		Steps:    steps,
		Pairs:    r.pairs,
		Keys:     r.keys,
		Events:   r.events,
	}}
}

// WorkloadTrace is a recorded workload run (workload.Trace v1): the full
// interaction schedule, the pre-interaction state keys, and every fired
// event with its exact effect on the state multiset. Record one with the
// RecordTrace run option; replay it with System.ReplayTrace — the replay
// reproduces the recording bit-exactly, on the agent backend (pairs plus
// re-fired events) and on the species backend (state-key pairs plus recorded
// count deltas) alike.
type WorkloadTrace struct {
	tr *workload.Trace
}

// Version returns the trace format version.
func (t *WorkloadTrace) Version() int { return t.tr.Version }

// Protocol returns the protocol the trace was recorded from.
func (t *WorkloadTrace) Protocol() string { return t.tr.Protocol }

// N returns the initial population size.
func (t *WorkloadTrace) N() int { return t.tr.N }

// Steps returns the number of recorded interactions.
func (t *WorkloadTrace) Steps() uint64 { return t.tr.Steps }

// Events returns the number of recorded events.
func (t *WorkloadTrace) Events() int { return len(t.tr.Events) }

// Encode writes the trace as versioned JSON.
func (t *WorkloadTrace) Encode(w io.Writer) error { return t.tr.Encode(w) }

// DecodeWorkloadTrace reads a versioned JSON trace, rejecting unknown
// versions and internally inconsistent traces.
func DecodeWorkloadTrace(r io.Reader) (*WorkloadTrace, error) {
	tr, err := workload.Decode(r)
	if err != nil {
		return nil, err
	}
	return &WorkloadTrace{tr: tr}, nil
}

// countReplayer is the species backend's replay surface (promoted from
// *species.System through its capability wrappers).
type countReplayer interface {
	ApplyPair(a, b uint64) error
	ApplyDeltas(deltas []workload.KeyDelta) error
}

// ReplayTrace re-executes a recorded workload trace on this system, which
// must run the trace's protocol at the trace's population size on the
// complete topology, positioned at the same starting configuration the
// recording started from. On the agent backend the recorded pairs are
// re-dealt and the events re-fired from their recorded seeds; on the species
// backend the recorded state-key pairs and per-event count deltas are
// applied. Both reproduce the recording's final configuration exactly (the
// bit-exact replay property pinned by the workload property tests). The
// clock advances over the replay and follows every replayed event's
// population, so a discrete replay ends at the recording's parallel time;
// a continuous one draws fresh holding times for the replayed interactions
// on either backend (the trace carries no times).
func (s *System) ReplayTrace(t *WorkloadTrace) error {
	if t == nil || t.tr == nil {
		return fmt.Errorf("sspp: nil workload trace")
	}
	tr := t.tr
	if err := tr.Validate(); err != nil {
		return err
	}
	if s.graph != nil {
		return fmt.Errorf("sspp: traces replay on the complete topology, this system runs %q", s.cfg.Topology.Name())
	}
	if got := s.ProtocolName(); got != tr.Protocol {
		return fmt.Errorf("sspp: trace was recorded from protocol %q, this system runs %q", tr.Protocol, got)
	}
	if got := s.N(); got != tr.N {
		return fmt.Errorf("sspp: trace starts at population %d, this system holds %d", tr.N, got)
	}
	event := func(te workload.TraceEvent) error { return s.applyWorkloadEvent(te.Event) }
	pair := func(i uint64) error {
		s.proto.Interact(int(tr.Pairs[2*i]), int(tr.Pairs[2*i+1]))
		return nil
	}
	if cr, ok := s.proto.(countReplayer); ok {
		if uint64(len(tr.Keys)) != 2*tr.Steps {
			return fmt.Errorf("sspp: trace carries no state keys (recorded from a protocol without the state-key capability); replay it on the agent backend")
		}
		event = func(te workload.TraceEvent) error { return cr.ApplyDeltas(te.Deltas) }
		pair = func(i uint64) error { return cr.ApplyPair(tr.Keys[2*i], tr.Keys[2*i+1]) }
	}
	clock := s.timeline()
	var done uint64 // replayed interactions the clock has accrued
	ei := 0
	for step := uint64(0); step <= tr.Steps; step++ {
		for ; ei < len(tr.Events) && tr.Events[ei].At == step; ei++ {
			clock.AdvanceMany(step - done)
			done = step
			if err := event(tr.Events[ei]); err != nil {
				return err
			}
			clock.SetN(s.N())
		}
		if step < tr.Steps {
			if err := pair(step); err != nil {
				return err
			}
		}
	}
	clock.AdvanceMany(tr.Steps - done)
	s.steps += tr.Steps
	return nil
}
