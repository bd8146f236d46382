// Package sim implements the population-protocol execution model of the
// paper (§1.1): n agents, and in every step a uniformly random ordered pair
// of distinct agents interacts and updates its states via the protocol's
// transition function.
//
// The package provides the Protocol abstraction, the pair schedulers, the
// Steps kernel that deals k interactions, and an Events sink that protocols
// use to report notable transitions (resets, detections, phase changes) to
// experiments and tests. Polling a stop condition is not done here: the
// public System.Run is the one run loop, built on Steps.
//
// Throughout the repository, "time" follows the paper's convention: parallel
// time equals the number of interactions divided by n.
package sim

import (
	"fmt"
	"sort"
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

// Events is a counter sink for notable protocol transitions. Protocols call
// Inc/IncAt; experiments and tests read Count/FirstAt/LastAt. The zero value
// is unusable; construct with NewEvents. Events is not safe for concurrent
// use, matching the single-threaded execution model.
type Events struct {
	counts  map[string]uint64
	firstAt map[string]uint64
	lastAt  map[string]uint64
}

// NewEvents returns an empty event sink.
func NewEvents() *Events {
	return &Events{
		counts:  make(map[string]uint64),
		firstAt: make(map[string]uint64),
		lastAt:  make(map[string]uint64),
	}
}

// Inc records one occurrence of name with no timestamp.
func (e *Events) Inc(name string) { e.IncAt(name, 0) }

// IncAt records one occurrence of name at interaction t.
func (e *Events) IncAt(name string, t uint64) {
	if e == nil {
		return
	}
	if _, ok := e.counts[name]; !ok {
		e.firstAt[name] = t
	}
	e.counts[name]++
	e.lastAt[name] = t
}

// Count returns the number of occurrences of name.
func (e *Events) Count(name string) uint64 {
	if e == nil {
		return 0
	}
	return e.counts[name]
}

// FirstAt returns the interaction at which name first occurred; ok is false
// if it never occurred.
func (e *Events) FirstAt(name string) (t uint64, ok bool) {
	if e == nil {
		return 0, false
	}
	t, ok = e.firstAt[name]
	return t, ok
}

// LastAt returns the interaction at which name last occurred; ok is false if
// it never occurred.
func (e *Events) LastAt(name string) (t uint64, ok bool) {
	if e == nil {
		return 0, false
	}
	t, ok = e.lastAt[name]
	return t, ok
}

// Reset clears all recorded events.
func (e *Events) Reset() {
	if e == nil {
		return
	}
	clear(e.counts)
	clear(e.firstAt)
	clear(e.lastAt)
}

// Names returns all recorded event names in sorted order.
func (e *Events) Names() []string {
	if e == nil {
		return nil
	}
	names := make([]string, 0, len(e.counts))
	for k := range e.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders all counters sorted by name, for logs and debugging.
func (e *Events) String() string {
	var b strings.Builder
	for _, k := range e.Names() {
		fmt.Fprintf(&b, "%s=%d ", k, e.counts[k])
	}
	return strings.TrimSpace(b.String())
}
