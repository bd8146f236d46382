// Package workload implements the dynamic half of the robustness model:
// time-varying schedules of mid-run disruption — transient fault bursts,
// whole-population adversary-class re-injections, and population churn
// (agents joining and leaving) under configurable arrival processes. A
// schedule compiles a list of timed phases into a flat, validated event
// list the run engine fires at exact interaction counts, and the trace
// format (trace.go) records everything a run did — schedule, churn, faults
// — so the workload replays bit-exactly across backends.
//
// Self-stabilization (Theorem 1.1 of the source paper) is pitched as
// robustness to arbitrary disruption; this package supplies the *ongoing*
// disruption regime — recovery under churn, not just after a single burst —
// where the paper's trade-off (and the related Burman et al. / Sudo
// trade-offs) actually earns its keep.
package workload

import (
	"fmt"
	"math"
	"sort"

	"sspp/internal/rng"
)

// Kind identifies one scheduled event type.
type Kind uint8

const (
	// KindTransient corrupts K uniformly chosen agents in place (the
	// InjectTransient fault model).
	KindTransient Kind = iota
	// KindInject rewrites the whole configuration according to the adversary
	// class named by Class (a mid-run re-injection).
	KindInject
	// KindJoin adds one agent, entering in the Class-chosen state.
	KindJoin
	// KindLeave removes one uniformly chosen agent.
	KindLeave
)

// kindNames maps kinds to their wire names.
var kindNames = [...]string{
	KindTransient: "transient",
	KindInject:    "inject",
	KindJoin:      "join",
	KindLeave:     "leave",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText renders the kind as its wire name (JSON-friendly).
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("workload: unknown event kind %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText parses a wire name back into a kind.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, name := range kindNames {
		if name == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("workload: unknown event kind %q", b)
}

// Event is one scheduled disruption, fired when the run reaches interaction
// At (counted from the start of the Run call). Events at the same instant
// fire consecutively, leaves before joins, with no interactions in between.
type Event struct {
	// At is the interaction count the event fires at.
	At uint64 `json:"at"`
	// Kind selects the event type.
	Kind Kind `json:"kind"`
	// K is the burst size of KindTransient events.
	K int `json:"k,omitempty"`
	// Class names the adversary class of KindInject and KindJoin events
	// ("" is the clean join state for joins).
	Class string `json:"class,omitempty"`
	// Seed seeds the event's randomness (victim choices, join states).
	Seed uint64 `json:"seed"`
}

// Phase generates part of a schedule: a one-shot event or a whole arrival
// process expanded against the initial population size and the run horizon.
type Phase interface {
	// Events returns the phase's events for an initial population of n0
	// agents and a run horizon (interaction budget) of horizon. The result
	// need not be sorted; Compile sorts the full schedule.
	Events(n0 int, horizon uint64) []Event
}

// OneShot is a Phase firing a single literal event.
type OneShot struct {
	Ev Event
}

// Events returns the single event.
func (o OneShot) Events(int, uint64) []Event { return []Event{o.Ev} }

// Poisson is a churn arrival process: events arrive with exponential gaps at
// an expected Rate events per n0 interactions (i.e. per unit of parallel
// time), from Start until End (End 0 means the run horizon). Each arrival is
// a join with probability JoinFrac and a leave otherwise — or, with Replace,
// a leave and a join at the same instant, keeping n constant (the
// replacement-churn model of fixed-capacity systems, and the only churn
// shape protocols with equal ChurnBounds accept). Rate changes over time are
// expressed by chaining several Poisson phases with different rates.
type Poisson struct {
	Start, End uint64
	// Rate is the expected number of arrivals per n0 interactions.
	Rate float64
	// JoinFrac is the per-arrival join probability (ignored under Replace).
	JoinFrac float64
	// Replace pairs every leave with a join at the same instant.
	Replace bool
	// Class is the state class joining agents enter in.
	Class string
	// Seed derives the arrival times, the join/leave coin and the per-event
	// seeds; the process is deterministic in (Seed, n0, horizon).
	Seed uint64
}

// Events expands the arrival process.
func (p Poisson) Events(n0 int, horizon uint64) []Event {
	end := p.End
	if end == 0 || end > horizon {
		end = horizon
	}
	if p.Rate <= 0 || n0 <= 0 || p.Start >= end {
		return nil
	}
	src := rng.New(p.Seed)
	mean := float64(n0) / p.Rate // expected gap in interactions
	var out []Event
	t := float64(p.Start)
	for {
		u := 1 - src.Float64() // (0, 1]
		t += -math.Log(u) * mean
		if t >= float64(end) {
			return out
		}
		at := uint64(t)
		if p.Replace {
			out = append(out,
				Event{At: at, Kind: KindLeave, Seed: src.Uint64()},
				Event{At: at, Kind: KindJoin, Class: p.Class, Seed: src.Uint64()})
			continue
		}
		kind := KindLeave
		if src.Float64() < p.JoinFrac {
			kind = KindJoin
		}
		ev := Event{At: at, Kind: kind, Seed: src.Uint64()}
		if kind == KindJoin {
			ev.Class = p.Class
		}
		out = append(out, ev)
	}
}

// Bursts is a periodic churn process: every Every interactions from Start
// until End (End 0 means the run horizon), Leaves agents leave and Joins
// agents join, all at the same instant.
type Bursts struct {
	Start, End, Every uint64
	Joins, Leaves     int
	Class             string
	Seed              uint64
}

// Events expands the periodic bursts.
func (b Bursts) Events(_ int, horizon uint64) []Event {
	end := b.End
	if end == 0 || end > horizon {
		end = horizon
	}
	if b.Every == 0 || b.Start >= end || (b.Joins <= 0 && b.Leaves <= 0) {
		return nil
	}
	src := rng.New(b.Seed)
	var out []Event
	for at := b.Start; at < end; at += b.Every {
		for i := 0; i < b.Leaves; i++ {
			out = append(out, Event{At: at, Kind: KindLeave, Seed: src.Uint64()})
		}
		for i := 0; i < b.Joins; i++ {
			out = append(out, Event{At: at, Kind: KindJoin, Class: b.Class, Seed: src.Uint64()})
		}
	}
	return out
}

// Step is a one-shot population step: at interaction At, Delta agents join
// (Delta > 0) or leave (Delta < 0), all at the same instant.
type Step struct {
	At    uint64
	Delta int
	Class string
	Seed  uint64
}

// Events expands the step.
func (s Step) Events(int, uint64) []Event {
	src := rng.New(s.Seed)
	var out []Event
	for i := 0; i < -s.Delta; i++ {
		out = append(out, Event{At: s.At, Kind: KindLeave, Seed: src.Uint64()})
	}
	for i := 0; i < s.Delta; i++ {
		out = append(out, Event{At: s.At, Kind: KindJoin, Class: s.Class, Seed: src.Uint64()})
	}
	return out
}

// Compile expands every phase against (n0, horizon) and returns the full
// schedule sorted by firing time. The sort is stable and leaves precede
// joins within an instant, so replacement-churn pairs stay adjacent and a
// vacated slot always exists before its join fires.
func Compile(phases []Phase, n0 int, horizon uint64) []Event {
	var events []Event
	for _, p := range phases {
		events = append(events, p.Events(n0, horizon)...)
	}
	SortEvents(events)
	return events
}

// SortEvents sorts a schedule in firing order: by time, stably, with leaves
// preceding joins within an instant (so a replacement pair's vacancy exists
// before its join fires); other kinds keep their insertion order.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		li := events[i].Kind == KindLeave
		lj := events[j].Kind == KindLeave
		return li && !lj
	})
}

// Caps describes what the running protocol can absorb; Validate checks a
// schedule against it — the capability-table contract extended to the
// dynamic model.
type Caps struct {
	// Protocol names the protocol for error messages.
	Protocol string
	// Injectable reports the injectable capability (transient bursts and
	// re-injections).
	Injectable bool
	// Churnable reports the churnable capability (joins and leaves).
	Churnable bool
	// MinN and MaxN are the protocol's churn bounds (MaxN 0 = unbounded).
	// Equal bounds declare replacement churn only.
	MinN, MaxN int
}

// Validate checks a compiled schedule against the protocol's capabilities
// and walks the population trajectory it implies from n0: every event group
// (the events sharing one instant) must leave the population within the
// protocol's churn bounds, and mid-group the population may dip (leaves
// apply first) but never below 1. Invalid schedules are rejected up front so
// a run never fires a disruption its protocol cannot absorb.
func Validate(events []Event, n0 int, caps Caps) error {
	n := n0
	minN := caps.MinN
	if minN < 2 {
		minN = 2
	}
	for i, ev := range events {
		if i > 0 && ev.At < events[i-1].At {
			return fmt.Errorf("workload: schedule not sorted (event %d at %d after %d)", i, ev.At, events[i-1].At)
		}
		switch ev.Kind {
		case KindTransient, KindInject:
			if err := caps.Admit(true, false); err != nil {
				return err
			}
			if ev.Kind == KindTransient && ev.K < 1 {
				return fmt.Errorf("workload: transient burst at %d has size %d < 1", ev.At, ev.K)
			}
		case KindJoin, KindLeave:
			if err := caps.Admit(false, true); err != nil {
				return err
			}
			if ev.Kind == KindLeave {
				n--
				if n < 1 {
					return fmt.Errorf("workload: leave at %d empties the population", ev.At)
				}
			} else {
				n++
			}
		default:
			return fmt.Errorf("workload: unknown event kind %d at %d", uint8(ev.Kind), ev.At)
		}
		// Bounds are enforced at event-group boundaries: replacement-churn
		// protocols (MinN == MaxN) accept a leave only when a join restores n
		// at the same instant.
		if i+1 == len(events) || events[i+1].At != ev.At {
			if n < minN {
				return fmt.Errorf("workload: population drops to %d after the events at %d (protocol %q requires at least %d agents%s)",
					n, ev.At, caps.Protocol, minN, replacementHint(caps))
			}
			if caps.MaxN > 0 && n > caps.MaxN {
				return fmt.Errorf("workload: population grows to %d after the events at %d (protocol %q supports at most %d agents%s)",
					n, ev.At, caps.Protocol, caps.MaxN, replacementHint(caps))
			}
		}
	}
	return nil
}

// Admit checks the two capability rows of the disruption model: injected
// faults (transient bursts and re-injections here; Inject, InjectTransient
// and Grid.TransientK in package sspp, which asks Admit too) need the
// injectable capability, churn the churnable one. It is the only code that
// words these rows.
func (caps Caps) Admit(faults, churn bool) error {
	if faults && !caps.Injectable {
		return fmt.Errorf("workload: protocol %q lacks the injectable capability that adversarial injection and transient faults need (see the capability table, DESIGN.md §9)", caps.Protocol)
	}
	if churn && !caps.Churnable {
		return fmt.Errorf("workload: churn requires the churnable capability, which protocol %q lacks (see the capability table, DESIGN.md §10)", caps.Protocol)
	}
	return nil
}

// replacementHint annotates bound errors for replacement-churn protocols.
func replacementHint(caps Caps) string {
	if caps.Churnable && caps.MinN == caps.MaxN && caps.MaxN > 0 {
		return "; it supports replacement churn only — pair every leave with a join at the same instant"
	}
	return ""
}

// PhasesUse reports, without expanding any arrival process, whether the
// phases can emit fault events (transient bursts, re-injections) and churn
// events (joins, leaves) — the static capability footprint grid validation
// checks before any trial runs. Unknown phase types count as both,
// conservatively.
func PhasesUse(phases []Phase) (faults, churn bool) {
	for _, p := range phases {
		switch ph := p.(type) {
		case OneShot:
			switch ph.Ev.Kind {
			case KindTransient, KindInject:
				faults = true
			case KindJoin, KindLeave:
				churn = true
			}
		case Poisson, Bursts, Step:
			churn = true
		default:
			faults, churn = true, true
		}
	}
	return faults, churn
}

// UsesFaults reports whether the schedule contains transient bursts or
// re-injections.
func UsesFaults(events []Event) bool {
	for _, ev := range events {
		if ev.Kind == KindTransient || ev.Kind == KindInject {
			return true
		}
	}
	return false
}

// UsesChurn reports whether the schedule contains joins or leaves.
func UsesChurn(events []Event) bool {
	for _, ev := range events {
		if ev.Kind == KindJoin || ev.Kind == KindLeave {
			return true
		}
	}
	return false
}
