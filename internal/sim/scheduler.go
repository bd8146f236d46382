// scheduler.go abstracts the pair scheduler. The paper's model (§1.1) is
// the uniform scheduler — every ordered pair equally likely — which
// *rng.PRNG implements directly. The weighted scheduler below models
// heterogeneous contact rates (e.g. well-mixed chemical solutions with
// unequal diffusion, or devices with unequal duty cycles) and powers the
// robustness extension T16: the paper's guarantees are proved for the
// uniform case; the experiment probes how gracefully stabilization degrades
// away from it. Batch amortizes draw overhead for throughput-bound sweeps,
// and Recorder/Recording capture exact schedules for replay.

package sim

import (
	"math"

	"sspp/internal/graph"
	"sspp/internal/rng"
)

// Scheduler draws ordered pairs of distinct agents in [0, n).
type Scheduler interface {
	Pair(n int) (a, b int)
}

// *rng.PRNG is the uniform scheduler of the population model.
var _ Scheduler = (*rng.PRNG)(nil)

// Weighted is a scheduler that picks each endpoint independently with fixed
// per-agent probabilities (re-drawing identical pairs), modelling agents
// with heterogeneous interaction rates.
type Weighted struct {
	r   *rng.PRNG
	cum []float64 // cumulative weights, cum[n-1] == 1; nil: uniform pairs
}

// NewWeighted builds a weighted scheduler from non-negative per-agent
// weights. When normalising leaves fewer than two agents that draw can
// return (fewer than two positive weights, or weights so skewed or
// non-finite that the rest round away), no weighted pair of distinct
// agents exists, so it deals the uniform pair instead. The slice is not
// retained.
func NewWeighted(r *rng.PRNG, weights []float64) *Weighted {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
		cum[i] = total
	}
	// draw returns index i only when cum[i] > cum[i-1] (cum[-1] = 0); a NaN
	// or infinite total fails every comparison.
	drawable, prev := 0, 0.0
	for i := range cum {
		cum[i] /= total
		if cum[i] > prev {
			drawable++
		}
		prev = cum[i]
	}
	if drawable < 2 {
		return &Weighted{r: r}
	}
	return &Weighted{r: r, cum: cum}
}

// NewZipf builds a weighted scheduler with Zipf-like weights
// w_i ∝ 1/(i+1)^s. s = 0 is uniform; larger s concentrates interactions on
// low-index agents.
func NewZipf(r *rng.PRNG, n int, s float64) *Weighted {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
	}
	return NewWeighted(r, weights)
}

// Pair draws an ordered pair of distinct agents.
func (w *Weighted) Pair(n int) (a, b int) {
	if w.cum == nil {
		return w.r.Pair(n)
	}
	if n > len(w.cum) {
		n = len(w.cum)
	}
	a = w.draw()
	b = a
	for b == a {
		b = w.draw()
	}
	if a >= n {
		a %= n
	}
	if b >= n || b == a {
		b = (a + 1) % n
	}
	return a, b
}

// draw samples one index by CDF inversion (binary search).
func (w *Weighted) draw() int {
	x := w.r.Float64()
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Batch is a high-throughput uniform scheduler: it pre-draws pairs from the
// underlying PRNG in fixed-size blocks, amortizing per-draw call overhead
// across the block. The pair sequence it deals is identical to calling
// Pair on the PRNG directly, so a Batch seeded like a plain uniform
// scheduler reproduces that scheduler's schedule exactly — it only draws
// ahead. The population size must stay fixed across calls (changing n
// discards the remainder of the current block).
type Batch struct {
	src  *rng.PRNG
	n    int
	buf  []int32
	next int
}

// NewBatch builds a batched uniform scheduler drawing size pairs per refill
// (size < 1 selects a default of 1024).
func NewBatch(src *rng.PRNG, size int) *Batch {
	if size < 1 {
		size = 1024
	}
	return &Batch{src: src, buf: make([]int32, 0, 2*size)}
}

// Pair deals the next pre-drawn pair, refilling the block when exhausted.
func (b *Batch) Pair(n int) (int, int) {
	if n != b.n || b.next >= len(b.buf) {
		b.refill(n)
	}
	a, c := int(b.buf[b.next]), int(b.buf[b.next+1])
	b.next += 2
	return a, c
}

// refill draws a full block of pairs for population size n.
func (b *Batch) refill(n int) {
	b.n = n
	b.buf = b.buf[:cap(b.buf)]
	for i := 0; i+1 < len(b.buf); i += 2 {
		a, c := b.src.Pair(n)
		b.buf[i], b.buf[i+1] = int32(a), int32(c)
	}
	b.next = 0
}

// Recorder wraps a Scheduler and records every pair it deals, so a schedule
// observed once (e.g. a run that exposed a bug) can be replayed exactly.
// When the inner scheduler samples a topology's edge set (EdgePairer, e.g.
// an EdgeSampler), the recording stores one edge index per interaction
// instead of the pair, and replay resolves the indices through the same
// graph — half the memory, and exact by construction.
type Recorder struct {
	inner Scheduler
	edges EdgePairer // non-nil when inner deals topology edges
	timed Timed      // non-nil when inner reports native event times
	rec   *Recording
}

// NewRecorder builds a recording wrapper around inner. When inner reports
// native event times (Timed, e.g. a NextReaction schedule), the recording
// stores the parallel time of every interaction alongside the pairs and
// encodes as wire version 2.
func NewRecorder(inner Scheduler) *Recorder {
	r := &Recorder{inner: inner, rec: &Recording{}}
	if ep, ok := inner.(EdgePairer); ok {
		r.edges = ep
		r.rec.g = ep.Graph()
	}
	if td, ok := inner.(Timed); ok {
		r.timed = td
	}
	return r
}

// Pair deals the inner scheduler's next pair and records it (with its
// event time when the inner scheduler is time-aware).
func (r *Recorder) Pair(n int) (int, int) {
	var a, b int
	if r.edges != nil {
		var idx int32
		a, b, idx = r.edges.PairEdge(n)
		r.rec.edges = append(r.rec.edges, idx)
	} else {
		a, b = r.inner.Pair(n)
		r.rec.pairs = append(r.rec.pairs, int32(a), int32(b))
	}
	if r.timed != nil {
		r.rec.times = append(r.rec.times, r.timed.Time())
	}
	return a, b
}

// Time returns the inner scheduler's current parallel time (0 when the
// inner scheduler is not time-aware), so a Recorder around a timed
// schedule remains a valid time source itself.
func (r *Recorder) Time() float64 {
	if r.timed == nil {
		return 0
	}
	return r.timed.Time()
}

// Recording returns the schedule captured so far. The recording keeps
// growing while the Recorder is used; replay what has been captured at any
// point.
func (r *Recorder) Recording() *Recording { return r.rec }

// Graph returns the interaction graph the inner scheduler samples, or nil
// when the inner scheduler is not topology-aware. A Recorder around an
// EdgeSampler thereby remains a valid topology scheduler itself.
func (r *Recorder) Graph() *graph.Graph { return r.rec.g }

// Recording is a captured schedule: explicit pairs for generic schedulers,
// or edge indices plus the graph that resolves them for topology schedules.
type Recording struct {
	pairs []int32
	edges []int32      // edge-index mode: one index per interaction
	g     *graph.Graph // resolves edges; nil in pair mode
	// times holds the parallel time of each interaction (continuous-clock
	// captures only; empty for discrete recordings). Encoded as wire
	// version 2; discrete recordings keep the version 1 byte layout.
	times []float64
}

// Len returns the number of recorded interactions.
func (rec *Recording) Len() int {
	if rec.g != nil {
		return len(rec.edges)
	}
	return len(rec.pairs) / 2
}

// EdgeIndexed reports whether the recording stores edge indices of an
// interaction graph rather than explicit pairs.
func (rec *Recording) EdgeIndexed() bool { return rec.g != nil }

// Timed reports whether the recording carries native event times (a
// continuous-clock capture).
func (rec *Recording) Timed() bool { return len(rec.times) > 0 }

// Replay returns a Scheduler that deals the recorded schedule in order. A
// consumer that outruns the recording wraps around to its start; replaying
// an empty recording panics. Pairs recorded for a larger population are
// folded into [0, n); edge-indexed recordings resolve through their graph
// and ignore n. Timed recordings replay as a Timed scheduler: the recorded
// event times are dealt alongside the pairs, and wrap-arounds keep the
// clock monotone by restarting the recorded timeline where the previous
// lap ended.
func (rec *Recording) Replay() Scheduler {
	if rec.Timed() {
		return &timedReplayer{replayer: replayer{rec: rec}}
	}
	return &replayer{rec: rec}
}

type replayer struct {
	rec  *Recording
	next int
}

// Graph returns the graph an edge-indexed recording resolves through (nil
// for pair-mode recordings), marking edge-indexed replays as valid
// topology schedulers.
func (r *replayer) Graph() *graph.Graph { return r.rec.g }

// Pair deals the next recorded pair.
func (r *replayer) Pair(n int) (int, int) {
	if r.rec.g != nil {
		if len(r.rec.edges) == 0 {
			panic("sim: Replay of an empty Recording")
		}
		if r.next >= len(r.rec.edges) {
			r.next = 0
		}
		a, b := r.rec.g.Edge(int(r.rec.edges[r.next]))
		r.next++
		return a, b
	}
	if len(r.rec.pairs) == 0 {
		panic("sim: Replay of an empty Recording")
	}
	if r.next >= len(r.rec.pairs) {
		r.next = 0
	}
	a, b := int(r.rec.pairs[r.next]), int(r.rec.pairs[r.next+1])
	r.next += 2
	if a >= n {
		a %= n
	}
	if b >= n || b == a {
		b = (a + 1) % n
	}
	return a, b
}

// timedReplayer replays a timed recording, dealing the recorded event time
// of every interaction alongside the pair. Wrap-arounds restart the
// recorded timeline where the previous lap ended, keeping Time monotone.
type timedReplayer struct {
	replayer
	offset float64 // accumulated timeline from completed laps
	t      float64
}

// Pair deals the next recorded pair and advances the replayed clock to its
// recorded event time.
func (r *timedReplayer) Pair(n int) (int, int) {
	a, b := r.replayer.Pair(n)
	idx := r.next - 1
	if r.rec.g == nil {
		idx = r.next/2 - 1
	}
	if idx == 0 && r.t != 0 {
		r.offset = r.t // wrapped: continue past the previous lap's end
	}
	r.t = r.offset + r.rec.times[idx]
	return a, b
}

// Time returns the recorded parallel time of the most recently dealt pair.
func (r *timedReplayer) Time() float64 { return r.t }

var _ Timed = (*timedReplayer)(nil)
