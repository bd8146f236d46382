// keyed.go is the one executor of the keyed baselines (CIW and LooseLE):
// protocols whose whole per-agent state packs into a small integer key. Each
// such protocol is written once, as rules over keys — the transition, the
// outputs, the join states, the random-state draw and the shrink clamp — and
// both backends run those rules: the agent executor below over one uint32
// key per agent, and the species form (keyed.Compact) over key counts. The
// key encoding is the species one, so StateKey is the identity and the
// mirror tests compare the two forms key by key.

package baseline

import (
	"fmt"
	"slices"

	"sspp/internal/adversary"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// rules is the single definition of a keyed baseline. Keys are the species
// encoding; every key of a population of n agents lies below space(n) and
// fits a uint32.
type rules struct {
	// name labels the protocol in error messages.
	name string
	// space returns the key-space bound for a population of n agents.
	space func(n int) uint64
	// diagonal declares that pairs of distinct keys never react
	// (CompactModel.Diagonal).
	diagonal bool
	// react applies the transition to the ordered key pair (a initiates, b
	// responds) in a population of n agents.
	react func(a, b uint64, n int) (uint64, uint64)
	// leader reports whether agents in state key output "leader".
	leader func(key uint64) bool
	// rank is the species form's rank output; nil for protocols that do not
	// rank (the agent form's Ranker capability belongs to the protocol type).
	rank func(key uint64) int32
	// safeSet is the species form's safe-set predicate; nil when the
	// protocol has none.
	safeSet func(v sim.CountView) bool
	// join returns the key of an agent joining under class into a
	// population of n agents (counted after the join), or ok false when the
	// class is not realizable as a join state. existing draws the key of a
	// uniformly chosen current agent, each backend by its own law.
	join func(class adversary.Class, n int, existing func() uint64, src *rng.PRNG) (key uint64, ok bool)
	// random draws a uniformly random type-valid key for a population of n
	// agents (random-garbage states and transient faults).
	random func(n int, src *rng.PRNG) uint64
	// clamp maps key into the key space of a population shrunk to n agents;
	// nil when the key space does not depend on n.
	clamp func(key uint64, n int) uint64
}

// joinState runs the join rule, reporting a class that is not realizable as
// a join state as an error.
func (r *rules) joinState(class string, n int, existing func() uint64, src *rng.PRNG) (uint64, error) {
	if key, ok := r.join(adversary.Class(class), n, existing, src); ok {
		return key, nil
	}
	return 0, fmt.Errorf("baseline: class %q not realizable as a %s join state", class, r.name)
}

// keyed is the agent executor of a keyed baseline: one uint32 key per agent.
type keyed struct {
	keys  []uint32
	rules *rules
}

// N returns the population size.
func (e *keyed) N() int { return len(e.keys) }

// Interact applies the protocol's transition to the ordered pair.
//
//sspp:hotpath
func (e *keyed) Interact(a, b int) {
	x, y := e.rules.react(uint64(e.keys[a]), uint64(e.keys[b]), len(e.keys))
	e.keys[a], e.keys[b] = uint32(x), uint32(y)
}

// Correct reports whether exactly one agent outputs "leader".
func (e *keyed) Correct() bool { return e.Leaders() == 1 }

// Leaders returns the number of agents currently outputting "leader".
func (e *keyed) Leaders() int {
	_, leaders := e.leaderScan()
	return leaders
}

// LeaderIndex returns the unique leader agent, or ok = false when the
// configuration does not currently have exactly one.
func (e *keyed) LeaderIndex() (int, bool) {
	idx, leaders := e.leaderScan()
	return idx, leaders == 1
}

// leaderScan returns the last leader agent's index (-1 when none) and the
// number of leaders.
func (e *keyed) leaderScan() (idx, leaders int) {
	idx = -1
	for i, k := range e.keys {
		if e.rules.leader(uint64(k)) {
			idx = i
			leaders++
		}
	}
	return idx, leaders
}

// StateKey returns agent i's state in the species-form key encoding of
// Compact — the hook mirror tests, the workload tracer and state-census
// tooling use to relate agent-level and count-level representations.
func (e *keyed) StateKey(i int) uint64 { return uint64(e.keys[i]) }

// ChurnBounds: the keyed baselines support any population of at least two
// agents.
func (e *keyed) ChurnBounds() (minN, maxN int) { return 2, 0 }

// Join adds one agent in the state the protocol's join rule picks for the
// class; the duplicating classes copy a uniformly drawn agent's state.
func (e *keyed) Join(class string, src *rng.PRNG) error {
	key, err := e.rules.joinState(class, len(e.keys)+1, func() uint64 {
		return uint64(e.keys[src.Intn(len(e.keys))])
	}, src)
	if err != nil {
		return err
	}
	e.keys = append(e.keys, uint32(key))
	return nil
}

// Leave removes one uniformly drawn agent (swap-remove: agent identities
// carry no state in the keyed baselines) and clamps any key the shrunken
// key space strands — without the clamp a CIW rank above n could never be
// corrected ((k, k) fires only on collisions) and the protocol would lose
// liveness.
func (e *keyed) Leave(src *rng.PRNG) error {
	n := len(e.keys)
	if n <= 1 {
		return fmt.Errorf("baseline: cannot remove the last %s agent", e.rules.name)
	}
	i := src.Intn(n)
	e.keys[i] = e.keys[n-1]
	e.keys = e.keys[:n-1]
	if clamp := e.rules.clamp; clamp != nil {
		for j, k := range e.keys {
			e.keys[j] = uint32(clamp(uint64(k), n-1))
		}
	}
	return nil
}

// randomize redraws every agent's state with the protocol's random-state
// draw (the random-garbage class).
func (e *keyed) randomize(src *rng.PRNG) {
	for i := range e.keys {
		e.keys[i] = uint32(e.rules.random(len(e.keys), src))
	}
}

// InjectTransient corrupts k uniformly chosen agents with random type-valid
// states and returns the victim indices.
func (e *keyed) InjectTransient(k int, src *rng.PRNG) []int {
	hit := victims(len(e.keys), k, src)
	for _, i := range hit {
		e.keys[i] = uint32(e.rules.random(len(e.keys), src))
	}
	return hit
}

// victims draws k distinct agent indices from [0, n) (all of them when
// k ≥ n), matching the transient-fault model of internal/adversary.
func victims(n, k int, src *rng.PRNG) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + src.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Compact describes the protocol in species form: the same rules over
// (key, count) pairs, starting from exactly this instance's configuration.
// The population size the transition and the clamp read is a closure
// variable of the model, not of the agent instance: Rescale updates it when
// churn changes the population, so the key-space bound tracks the live size.
func (e *keyed) Compact() sim.CompactModel {
	r := e.rules
	n := len(e.keys)
	space := r.space(n)
	churn := &sim.CompactChurn{
		MinN: 2,
		Join: func(class string, nNew int, v sim.CountView, src *rng.PRNG) (uint64, error) {
			return r.joinState(class, nNew, func() uint64 {
				// A uniformly chosen agent's state, count-weighted over the
				// pre-join multiset.
				u := int64(src.Uint64n(uint64(v.N())))
				var key uint64
				v.Each(func(k uint64, cnt int64) bool {
					if u < cnt {
						key = k
						return false
					}
					u -= cnt
					return true
				})
				return key
			}, src)
		},
	}
	if r.clamp != nil {
		churn.Rescale = func(nNew int) (uint64, func(uint64) uint64) {
			shrink := nNew < n
			n = nNew
			if !shrink {
				return r.space(nNew), nil
			}
			return r.space(nNew), func(k uint64) uint64 { return r.clamp(k, nNew) }
		}
	}
	return sim.CompactModel{
		StateSpace:    space,
		Diagonal:      r.diagonal,
		Deterministic: true,
		Init:          func() ([]uint64, []int64) { return tally(e.keys, space) },
		React: func(a, b uint64, _ *rng.PRNG) (uint64, uint64) {
			return r.react(a, b, n)
		},
		Leader:  r.leader,
		Rank:    r.rank,
		SafeSet: r.safeSet,
		Churn:   churn,
	}
}

// tally returns the distinct keys in ascending order with their counts. A
// key space no larger than the population (CIW's n + 1 ranks, LooseLE's
// 2(τ+1) states at the default τ) is counted in a dense array, with no sort
// over the keys; a larger one (LooseLE with a long timeout) is counted in a
// map whose distinct keys are then sorted.
func tally(keys []uint32, space uint64) ([]uint64, []int64) {
	var order []uint64
	var occ []int64
	if space <= uint64(len(keys))+1 {
		counts := make([]int64, space)
		for _, k := range keys {
			counts[k]++
		}
		for k, c := range counts {
			if c > 0 {
				order = append(order, uint64(k))
				occ = append(occ, c)
			}
		}
		return order, occ
	}
	counts := make(map[uint64]int64)
	for _, k := range keys {
		counts[uint64(k)]++
	}
	for k := range counts {
		order = append(order, k)
	}
	slices.Sort(order)
	for _, k := range order {
		occ = append(occ, counts[k])
	}
	return order, occ
}
