// nextreaction.go generalizes the continuous clock to interaction graphs:
// on a non-complete topology every edge carries its own exponential clock
// (rate n/(2M) per directed edge, so the total rate stays n/2 and the jump
// chain remains uniform over edges — the same law the discrete EdgeSampler
// deals), and the next interaction is the edge whose clock fires first.
// This is Gibson–Bruck's next-reaction method specialized to equal rates:
// absolute firing times live in a binary min-heap keyed by time,
// and the fired edge redraws its clock and is sifted back down from the
// root. Each interaction costs O(log M) with zero allocations.

package sim

import (
	"sspp/internal/graph"
	"sspp/internal/rng"
)

// NextReaction is a continuous-time Scheduler over a fixed interaction
// graph: Pair deals the edge with the earliest clock, advances the global
// time to that clock, and redraws the edge's next firing time. It
// implements the same scheduler capabilities as EdgeSampler (EdgePairer,
// GraphScheduler) plus Timed, so recordings capture edge indices with
// native event times and the engine reads parallel time straight from the
// schedule.
type NextReaction struct {
	g       *graph.Graph
	src     *rng.PRNG
	invRate float64 // mean holding time per edge clock: 2M/n
	t       float64

	heap []int32   // heap[i] is the edge at heap position i
	key  []float64 // key[e] is edge e's absolute firing time
}

// NewNextReaction builds a next-reaction scheduler over g, drawing
// exponential clocks from src, with the global clock starting at parallel
// time start (pass the system's accumulated time so successive runs
// continue the same timeline). One stream drives both halves of the
// schedule — which edge fires and when — because in the next-reaction
// method they are the same draws.
func NewNextReaction(g *graph.Graph, src *rng.PRNG, start float64) *NextReaction {
	m := g.M()
	nr := &NextReaction{
		g:       g,
		src:     src,
		invRate: 2 * float64(m) / float64(g.N()),
		t:       start,
		heap:    make([]int32, m),
		key:     make([]float64, m),
	}
	for e := 0; e < m; e++ {
		nr.heap[e] = int32(e)
		nr.key[e] = start + src.Exp()*nr.invRate
	}
	for i := m/2 - 1; i >= 0; i-- {
		nr.siftDown(i)
	}
	return nr
}

// Pair deals the edge with the earliest clock and advances the global time
// to it. The population size argument is fixed by the graph and ignored.
//
//sspp:hotpath
func (nr *NextReaction) Pair(int) (a, b int) {
	return nr.g.Edge(int(nr.fire()))
}

// PairEdge deals the next pair together with the edge index it fired on,
// for edge-indexed (and timed) recordings.
//
//sspp:hotpath
func (nr *NextReaction) PairEdge(int) (a, b int, edge int32) {
	e := nr.fire()
	a, b = nr.g.Edge(int(e))
	return a, b, e
}

// fire pops the earliest edge clock, advances the global time, redraws the
// edge's next firing time, and restores the heap from the root.
//
//sspp:hotpath
func (nr *NextReaction) fire() int32 {
	e := nr.heap[0]
	nr.t = nr.key[e]
	nr.key[e] = nr.t + nr.src.Exp()*nr.invRate
	nr.siftDown(0)
	return e
}

// siftDown restores the min-heap property downward from position i.
//
//sspp:hotpath
func (nr *NextReaction) siftDown(i int) {
	h, key := nr.heap, nr.key
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && key[h[r]] < key[h[l]] {
			min = r
		}
		if key[h[i]] <= key[h[min]] {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Time returns the parallel time of the most recently dealt pair.
func (nr *NextReaction) Time() float64 { return nr.t }

// Graph returns the interaction graph the scheduler fires edges of.
func (nr *NextReaction) Graph() *graph.Graph { return nr.g }

var (
	_ EdgePairer     = (*NextReaction)(nil)
	_ GraphScheduler = (*NextReaction)(nil)
	_ Timed          = (*NextReaction)(nil)
)
