// Package sim implements the population-protocol execution model of the
// paper (§1.1): n agents, and in every step a uniformly random ordered pair
// of distinct agents interacts and updates its states via the protocol's
// transition function.
//
// The package provides the Protocol abstraction, the pair schedulers, the
// Steps kernel that deals k interactions, and the Events vector: one counter
// per Event, which protocols increment on notable transitions (resets,
// detections, role changes) and experiments and tests read. Polling a stop condition is not done here: the
// public System.Run is the one run loop, built on Steps.
//
// Throughout the repository, "time" follows the paper's convention: parallel
// time equals the number of interactions divided by n.
package sim

import (
	"fmt"
	"strings"

	"sspp/internal/rng"
)

// Protocol is a population protocol over a fixed set of agents.
//
// Implementations are single-threaded state machines: Steps calls Interact
// sequentially, never concurrently.
type Protocol interface {
	// N returns the population size.
	N() int
	// Interact applies the transition function to the ordered pair of
	// distinct agents (a, b), where a is the initiator and b the responder.
	Interact(a, b int)
	// Correct reports whether the current configuration has correct output
	// (for leader election: exactly one agent outputs "leader").
	Correct() bool
}

// CountSource returns the uniform stream a count-based protocol samples its
// state pairs from. Count-based protocols (the species backend) have no
// agent identities, so they accept only a uniform *rng.PRNG scheduler; any
// other scheduler is an error rather than a silent substitution of uniform
// dynamics. For agent-based protocols it returns (nil, nil): every
// scheduler is fine.
func CountSource(p Protocol, sched Scheduler) (*rng.PRNG, error) {
	if _, ok := AsCountBased(p); !ok {
		return nil, nil
	}
	src, uniform := sched.(*rng.PRNG)
	if !uniform {
		return nil, fmt.Errorf("sim: count-based protocol %T supports only uniform *rng.PRNG schedulers, got %T", p, sched)
	}
	return src, nil
}

// Steps performs exactly k scheduler-driven interactions on p without any
// correctness polling. It is the one stepping kernel of the repository:
// System.Run calls it once per chunk between polls, and experiments and
// tests call it directly. Count-based protocols bind sched as their
// sampling stream and step in bulk; Steps panics with the CountSource
// error when sched is not a uniform *rng.PRNG.
func Steps(p Protocol, sched Scheduler, k uint64) {
	if cb, ok := AsCountBased(p); ok {
		src, err := CountSource(p, sched)
		if err != nil {
			panic(err)
		}
		cb.BindSource(src)
		cb.StepMany(k)
		return
	}
	n := p.N()
	for i := uint64(0); i < k; i++ {
		a, b := sched.Pair(n)
		p.Interact(a, b)
	}
}

// Event names one notable protocol transition. The constants are in name
// order, the order String prints them in; a new event gets a constant here
// and its name in eventNames.
type Event uint8

// The events ElectLeader_r reports: its own role transitions (core.*) and
// those of the embedded StableVerify_r (verify.*).
const (
	// EvAwaken counts resetter→ranker awakenings (Reset, Protocol 6).
	EvAwaken Event = iota
	// EvBecameVerifier counts ranker→verifier transitions.
	EvBecameVerifier
	// EvHardReset counts TriggerReset executions.
	EvHardReset
	// EvInfected counts computing→resetting infections.
	EvInfected
	// EvVerifyHardReset counts hard-reset requests issued by StableVerify_r.
	EvVerifyHardReset
	// EvSoftReset counts soft resets (both self-triggered and epidemic).
	EvSoftReset
	// EvTop counts agents observed in ⊤ (per endpoint, per interaction).
	EvTop
	numEvents
)

// eventNames is the one definition site of the event names.
var eventNames = [numEvents]string{
	"core.awaken", "core.became_verifier", "core.hard_reset", "core.infected",
	"verify.hard_reset", "verify.soft_reset", "verify.top",
}

// String returns the event's name.
func (ev Event) String() string { return eventNames[ev] }

// Events counts each Event. Protocols call Inc; experiments and tests read
// Count, or CountNamed by name. A nil *Events records nothing and counts
// zero. Events is not safe for concurrent use, matching the single-threaded
// execution model.
type Events [numEvents]uint64

// NewEvents returns an empty event vector.
func NewEvents() *Events { return new(Events) }

// Inc records one occurrence of ev.
//
//sspp:hotpath
func (e *Events) Inc(ev Event) {
	if e != nil {
		e[ev]++
	}
}

// Count returns the number of occurrences of ev.
func (e *Events) Count(ev Event) uint64 {
	if e == nil {
		return 0
	}
	return e[ev]
}

// CountNamed returns the number of occurrences of the event called name;
// an unknown name counts zero.
func (e *Events) CountNamed(name string) uint64 {
	for ev, n := range eventNames {
		if n == name {
			return e.Count(Event(ev))
		}
	}
	return 0
}

// String renders every event that occurred as name=count, in name order,
// for logs and debugging.
func (e *Events) String() string {
	var b strings.Builder
	for ev := range numEvents {
		if c := e.Count(ev); c > 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", ev, c)
		}
	}
	return b.String()
}
