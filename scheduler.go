// scheduler.go exposes the pluggable pair schedulers of the execution model.
// The paper's guarantees (Theorem 1.1) are proved for the uniform scheduler;
// the other implementations cover throughput (NewBatch), robustness probes
// under heterogeneous contact rates (NewZipf, NewWeighted), and exact
// schedule capture/replay for reproducible traces (NewRecorder). Every
// scheduler here is deterministic given its seed, and any user type with a
// Pair method plugs into Run via WithScheduler and into Ensemble sweeps via
// the internal runners.

package sspp

import (
	"io"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

// Scheduler draws ordered pairs of distinct agents in [0, n): a is the
// initiator, b the responder. Implementations are single-goroutine state
// machines; a System run consumes one Pair per interaction.
type Scheduler interface {
	Pair(n int) (a, b int)
}

// NewUniform returns the uniform random scheduler of the population model
// (paper §1.1): every ordered pair of distinct agents is equally likely.
// This is what SchedulerSeed uses under the hood.
func NewUniform(seed uint64) Scheduler {
	return rng.New(seed)
}

// NewBatch returns a high-throughput uniform scheduler that pre-draws pairs
// in blocks of the given size (0 selects a default). While the population
// size stays fixed — the case for any single System — the schedule it deals
// is identical to NewUniform with the same seed, only the draw pattern
// differs, so it is a drop-in replacement for throughput-bound sweeps.
// Changing n between calls discards the rest of the current block, and the
// schedule then diverges from the uniform one.
func NewBatch(seed uint64, size int) Scheduler {
	return sim.NewBatch(rng.New(seed), size)
}

// NewZipf returns a non-uniform scheduler with Zipf-like contact rates
// w_i ∝ 1/(i+1)^s over a population of n agents: s = 0 is uniform, larger s
// concentrates interactions on low-index agents. The paper's bounds assume
// the uniform scheduler; this models heterogeneous real-world contact rates
// (experiment T16).
func NewZipf(seed uint64, n int, s float64) Scheduler {
	return sim.NewZipf(rng.New(seed), n, s)
}

// NewWeighted returns a non-uniform scheduler that picks each endpoint
// independently with probability proportional to its weight (re-drawing
// identical pairs). When fewer than two agents keep a drawable share of
// the normalised weights it deals the uniform pair instead. The slice is
// not retained.
func NewWeighted(seed uint64, weights []float64) Scheduler {
	return sim.NewWeighted(rng.New(seed), weights)
}

// Recorder is a Scheduler that wraps another scheduler and records every
// pair it deals, for exact replay.
type Recorder struct {
	*sim.Recorder
}

// NewRecorder wraps inner so the schedule it deals can be replayed exactly
// with Recording().Replay().
func NewRecorder(inner Scheduler) *Recorder {
	return &Recorder{sim.NewRecorder(inner)}
}

// Recording returns the schedule captured so far.
func (r *Recorder) Recording() *Recording {
	return &Recording{r.Recorder.Recording()}
}

// Recording is a captured pair schedule; Replay turns it back into a
// Scheduler that deals the identical pairs in order (wrapping around if the
// consumer outruns it).
type Recording struct {
	rec *sim.Recording
}

// RecordingVersion identifies the Recording wire layout written by Encode
// and accepted by DecodeRecording.
const RecordingVersion = sim.RecordingVersion

// Len returns the number of recorded pairs.
func (rec *Recording) Len() int { return rec.rec.Len() }

// Replay returns a Scheduler dealing the recorded pairs in order.
func (rec *Recording) Replay() Scheduler { return rec.rec.Replay() }

// Encode writes the recording as versioned JSON (RecordingVersion). Both
// modes round-trip: generic pair streams, and edge-indexed topology
// schedules, which archive the resolving graph's edge list so replay does
// not depend on regenerating the topology.
func (rec *Recording) Encode(w io.Writer) error { return rec.rec.Encode(w) }

// DecodeRecording reads a versioned JSON recording written by Encode,
// rejecting unknown versions and internally inconsistent payloads.
func DecodeRecording(r io.Reader) (*Recording, error) {
	rec, err := sim.DecodeRecording(r)
	if err != nil {
		return nil, err
	}
	return &Recording{rec}, nil
}
