// trace.go defines the versioned workload trace: everything one run did —
// the interaction schedule (explicit agent pairs on the complete topology),
// the pre-interaction state keys, and the scheduled events with their exact
// effect on the state multiset — so a recorded workload replays bit-exactly
// on either backend. The agent backend replays the pairs and re-fires the
// events from their seeds; the count-based backend replays the state-key
// pairs and applies the recorded count deltas, reproducing the identical
// final multiset without agent identities.

package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceVersion identifies the trace wire layout. Version 1 is the first.
const TraceVersion = 1

// KeyDelta is one state-count change of an event: Delta agents entered
// (positive) or left (negative) state Key.
type KeyDelta struct {
	Key   uint64 `json:"key"`
	Delta int64  `json:"delta"`
}

// TraceEvent is one fired event with its recorded effect.
type TraceEvent struct {
	Event
	// Deltas is the event's exact effect on the state multiset (census diff
	// across the event, sorted by key). Replay applies it instead of
	// re-drawing the event's randomness, which is what makes churn and
	// faults replay bit-exactly on the count-based backend.
	Deltas []KeyDelta `json:"deltas"`
	// NAfter is the population size after the event.
	NAfter int `json:"n_after"`
}

// Trace is one recorded workload run.
type Trace struct {
	// Version stamps the wire layout (TraceVersion).
	Version int `json:"version"`
	// Protocol names the protocol the trace was recorded from; replay
	// requires the same protocol (the state-key encoding is per-protocol).
	Protocol string `json:"protocol"`
	// N is the initial population size.
	N int `json:"n"`
	// Steps is the number of interactions executed.
	Steps uint64 `json:"steps"`
	// Pairs holds the dealt agent pairs, two entries per interaction.
	Pairs []int32 `json:"pairs,omitempty"`
	// Keys holds the pre-interaction state keys of the dealt agents, two
	// entries per interaction — the count-based replay schedule.
	Keys []uint64 `json:"keys,omitempty"`
	// Events holds the fired events in firing order.
	Events []TraceEvent `json:"events"`
}

// Validate checks the trace's internal consistency.
func (t *Trace) Validate() error {
	if t.Version != TraceVersion {
		return fmt.Errorf("workload: trace version %d, this build reads version %d", t.Version, TraceVersion)
	}
	if t.N < 2 {
		return fmt.Errorf("workload: trace population %d < 2", t.N)
	}
	if uint64(len(t.Pairs)) != 2*t.Steps {
		return fmt.Errorf("workload: trace has %d steps but %d pair entries", t.Steps, len(t.Pairs))
	}
	if len(t.Keys) > 0 && uint64(len(t.Keys)) != 2*t.Steps {
		return fmt.Errorf("workload: trace has %d steps but %d key entries", t.Steps, len(t.Keys))
	}
	var last uint64
	for i, ev := range t.Events {
		if ev.At > t.Steps {
			return fmt.Errorf("workload: trace event %d fires at %d past the %d executed steps", i, ev.At, t.Steps)
		}
		if ev.At < last {
			return fmt.Errorf("workload: trace events out of order at index %d", i)
		}
		last = ev.At
	}
	return nil
}

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Decode reads a JSON trace and validates it, rejecting future versions
// rather than silently misreading them.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
