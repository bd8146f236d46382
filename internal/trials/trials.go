// Package trials implements the parallel trial engine: a worker pool that
// fans independent simulation trials (seeds × configuration points) across
// GOMAXPROCS cores while keeping every result bit-identical to a sequential
// run.
//
// Determinism rests on two rules. First, randomness: each trial receives its
// own PRNG stream, pre-forked sequentially from a root generator (rng.Fork)
// before any worker starts, so the streams do not depend on which worker
// picks up which trial. Second, aggregation: results land in a slice indexed
// by trial, so the output order is the trial order regardless of the
// completion order or the worker count. Experiment tables built on top of
// the engine are therefore byte-identical for one worker and for
// GOMAXPROCS workers.
//
// A trial's stream is split into its named roles by Split, the one seed
// derivation of the repository: the Ensemble and every experiment table
// take their per-trial randomness from it.
package trials

import (
	"runtime"
	"sync"

	"sspp/internal/rng"
)

// DefaultWorkers resolves a worker-count setting: values < 1 mean
// GOMAXPROCS, anything else is returned unchanged.
func DefaultWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes fn for every trial index in [0, n) across the given number of
// workers (< 1 means GOMAXPROCS) and returns the results in trial order.
// Each invocation receives a dedicated PRNG forked deterministically from
// baseSeed: stream i is the i-th sequential Fork of rng.New(baseSeed), so
// results do not depend on the worker count or on scheduling. fn must not
// share mutable state between trials.
func Run[T any](workers, n int, baseSeed uint64, fn func(trial int, src *rng.PRNG) T) []T {
	if n <= 0 {
		return nil
	}
	streams := ForkStreams(rng.New(baseSeed), n)
	results := make([]T, n)
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			results[i] = fn(i, streams[i])
		}
		return results
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				results[i] = fn(i, streams[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// ForkStreams pre-forks k statistically independent PRNG streams from root.
// The forks are drawn sequentially from root, so the resulting streams are a
// deterministic function of root's state and k alone.
func ForkStreams(root *rng.PRNG, k int) []*rng.PRNG {
	out := make([]*rng.PRNG, k)
	for i := range out {
		out[i] = root.Fork()
	}
	return out
}

// Streams is one trial's randomness split into its named roles: the
// protocol seed (the protocol's own coins: identifiers, signatures, graph
// draws), the adversary stream (the starting configuration and injected
// faults) and the scheduler stream (the pairs). It is a value: a copy
// replays the same randomness, so a trial that runs twice on the same
// streams copies them first.
type Streams struct {
	ProtoSeed  uint64
	Adv, Sched rng.PRNG
	rest       rng.PRNG // the trial stream after the three roles
}

// Split splits the trial stream src into its roles in one fixed order: the
// protocol seed is drawn first, then the adversary stream is forked, then
// the scheduler stream. src is left untouched.
func Split(src *rng.PRNG) Streams {
	rest := *src
	st := Streams{ProtoSeed: rest.Uint64()}
	st.Adv = *rest.Fork()
	st.Sched = *rest.Fork()
	st.rest = rest
	return st
}

// Fork returns the stream of a role beyond the three: such roles fork from
// the trial stream after them, in the order the trial asks for them.
func (st *Streams) Fork() *rng.PRNG { return st.rest.Fork() }

// Derive returns the split streams of trials 0..n-1 rooted at baseSeed:
// trial s splits the s-th sequential Fork of rng.New(baseSeed), the stream
// Run hands trial s.
func Derive(baseSeed uint64, n int) []Streams {
	out := make([]Streams, n)
	for s, src := range ForkStreams(rng.New(baseSeed), n) {
		out[s] = Split(src)
	}
	return out
}
