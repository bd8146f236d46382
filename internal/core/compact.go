// compact.go implements the Compactable capability for ElectLeader_r: the
// composite (ranking, verify, detect, probation) per-agent state is too rich
// for a packed key, so the model interns canonical encodings (key.go) in a
// table it owns — the NameRank pattern (internal/baseline/compact.go) — and
// runs the exact same pair dynamics (dynamics.go) over deep copies of the
// interned states. The table is indexed by a fixed 64-bit hash of the
// encoding in a lazily grown open-addressed index (intern.go) and holds no
// strings: on a hash-tag match the archived state is re-encoded and the
// bytes compared, so the encoding stays the one definition of state
// equality. Unlike the baselines, ElectLeader_r's reachable state
// space is effectively unbounded (probation timers, countdowns and message
// multisets make almost every interaction mint fresh states), so the model
// also wires the engine's Release hook: dead table entries are evicted and
// their keys recycled, bounding the table at O(occupied states) instead of
// O(interactions).
//
// The model draws all protocol randomness from the instance's own PRNG and
// deliberately ignores the engine-passed source: with matched seeds, an
// agent-level instance and a species run of its compact model consume the
// identical random sequence, which is what makes the exact-mirror
// equivalence test (compact_test.go) bit-for-bit rather than statistical.
// Likewise the safe set is not written again here: safeSet gathers the
// inputs of the one Lemma 6.1 predicate (correct.go) in a pass over counts.

package core

import (
	"bytes"
	"fmt"

	"sspp/internal/coin"
	"sspp/internal/reset"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/verify"
)

var _ sim.Compactable = (*Protocol)(nil)

// compactModel is the interning machinery behind Compact: a table of
// canonical agent states indexed by key, the hash index from canonical
// encoding to key, and the scratch that keeps the per-interaction deep
// copies allocation-free once warm.
type compactModel struct {
	// dyn shares the instance's constants, parameters and event sink, but
	// owns its scratch and free lists: a species run must not disturb the
	// template instance's recycling pools.
	dyn    dynamics
	n      int
	sample coin.Sampler

	tab    []Agent     // interned canonical states, indexed by key
	hashes []uint64    // hashKey of each entry's encoding, parallel to tab
	index  internIndex // hash → key (intern.go)
	free   []uint64    // recycled keys (released table slots)
	enc    []byte      // encoding scratch: the state being interned
	cmp    []byte      // encoding scratch: a filed entry, re-encoded

	u, v Agent // React's working copies
	jw   Agent // Join's working copy

	// Safe-set scratch: the epoch-tagged rank-distinctness array, the
	// per-generation counts and verifier set that one CountView pass
	// (admit, pre-bound so polls do not allocate) builds for the shared
	// predicate, and that predicate's buffers (correct.go).
	rankEpoch []uint64
	epoch     uint64
	genCount  [verify.Generations]int
	probCount [verify.Generations]int
	set       []*Agent
	admit     func(key uint64, c int64) bool
	walk      safeWalk
}

// probe encodes a and looks it up: the encoding's hash, and the key of an
// equal interned state if there is one.
func (m *compactModel) probe(a *Agent) (h, id uint64, ok bool) {
	m.enc = appendAgentKey(m.enc[:0], a)
	h = hashKey(m.enc)
	id, ok = m.index.find(h, m.sameEnc)
	return h, id, ok
}

// sameEnc reports whether table entry id encodes to m.enc. Equality is
// decided by the canonical encoding alone, re-derived from the archived
// state, so the hash only ever narrows the candidates.
func (m *compactModel) sameEnc(id uint64) bool {
	m.cmp = appendAgentKey(m.cmp[:0], &m.tab[id])
	return bytes.Equal(m.cmp, m.enc)
}

// intern returns a's key and whether it is fresh. A fresh key is the most
// recently released one, else the next table slot, and is filed under the
// encoding's hash; its table entry is empty, for the caller to fill. Keys
// of released states are reused, so a key is only meaningful while its
// state stays occupied — exactly the engine's contract for Release-bearing
// models.
func (m *compactModel) intern(a *Agent) (uint64, bool) {
	h, id, ok := m.probe(a)
	if ok {
		return id, false
	}
	if k := len(m.free); k > 0 {
		id = m.free[k-1]
		m.free = m.free[:k-1]
	} else {
		id = uint64(len(m.tab))
		m.tab = append(m.tab, Agent{})
		m.hashes = append(m.hashes, 0)
	}
	m.hashes[id] = h
	m.index.insert(h, id)
	return id, true
}

// keyOf interns a and returns its key, deep-copying the state into the
// table on first sight: a stays as it was.
func (m *compactModel) keyOf(a *Agent) uint64 {
	id, fresh := m.intern(a)
	if fresh {
		m.dyn.copyAgentInto(&m.tab[id], a)
	}
	return id
}

// take is keyOf for the model's own working copies: on first sight the
// state's per-role buffers move into the table instead of being copied, and
// a loses them (its next copyAgentInto pops recycled ones).
func (m *compactModel) take(a *Agent) uint64 {
	id, fresh := m.intern(a)
	if fresh {
		m.tab[id] = *a
		a.AR, a.SV = nil, nil
	}
	return id
}

// release evicts key's table entry: it is unfiled from the index, the
// per-role states return to the free lists, and the key becomes reusable.
// Releasing a key that is not live is a no-op.
func (m *compactModel) release(key uint64) {
	if !m.index.remove(m.hashes[key], key) {
		return
	}
	a := &m.tab[key]
	m.dyn.releaseAR(a)
	m.dyn.releaseSV(a)
	*a = Agent{}
	m.free = append(m.free, key)
}

// react applies one ElectLeader_r interaction to the ordered state pair: the
// interned states are deep-copied into working agents, the shared pair
// dynamics run, and the successors are interned, moving the working copies'
// buffers into the table when they are fresh. The engine's source is
// ignored — see the package comment.
//
//sspp:hotpath
func (m *compactModel) react(a, b uint64, _ *rng.PRNG) (uint64, uint64) {
	m.dyn.copyAgentInto(&m.u, &m.tab[a])
	m.dyn.copyAgentInto(&m.v, &m.tab[b])
	m.dyn.interactPair(&m.u, &m.v, m.sample, m.sample)
	return m.take(&m.u), m.take(&m.v)
}

// join returns the key of an agent joining under the named adversary class.
// The class names mirror internal/adversary (which cannot be imported here:
// it depends on this package). Classes that corrupt per-agent fields with
// the adversary's randomness (random-garbage) have no count-level form.
func (m *compactModel) join(class string, _ int, _ sim.CountView, _ *rng.PRNG) (uint64, error) {
	jw := &m.jw
	switch class {
	case "", "clean-rankers":
		m.dyn.reinitRanker(jw)
	case "triggered":
		m.dyn.releaseAR(jw)
		m.dyn.releaseSV(jw)
		jw.Role = RoleResetting
		jw.Reset = reset.Triggered(m.dyn.consts.Reset)
		jw.Countdown = 0
		jw.Rank = 0
	default:
		return 0, fmt.Errorf("core: class %q not realizable as an electleader species join state", class)
	}
	return m.take(jw), nil
}

// safeSet is Lemma 6.1's safe set over the count multiset. One CountView
// pass admits every state holding a single verifier with a distinct
// in-range rank and no detector in ⊤, counting generations and probation as
// it goes; the shared predicate (safeWalk.safe) then decides the generation
// and message-coherence clauses. The pass stops at the first state it
// rejects, so the population was fully admitted exactly when it collected n
// states. detect.Coherent is order-independent, so the unspecified
// CountView iteration order is safe.
func (m *compactModel) safeSet(v sim.CountView) bool {
	if v.N() != m.n {
		return false
	}
	m.epoch++
	m.genCount, m.probCount = [verify.Generations]int{}, [verify.Generations]int{}
	m.set = m.set[:0]
	v.Each(m.admit)
	return len(m.set) == m.n && m.walk.safe(m.dyn.vp.Detect, &m.genCount, &m.probCount, m.set)
}

// admitState is safeSet's per-state check (bound to m.admit).
func (m *compactModel) admitState(key uint64, c int64) bool {
	a := &m.tab[key]
	// A duplicated full state duplicates its rank, so c must be 1.
	if c != 1 || a.Role != RoleVerifying || a.SV == nil {
		return false
	}
	r := a.Rank
	if r < 1 || int(r) > m.n || m.rankEpoch[r-1] == m.epoch {
		return false
	}
	m.rankEpoch[r-1] = m.epoch
	if a.SV.DC != nil && a.SV.DC.Err {
		return false
	}
	g := a.SV.Generation % verify.Generations
	m.genCount[g]++
	if a.SV.Probation != 0 {
		m.probCount[g]++
	}
	m.set = append(m.set, a)
	return true
}

// Compact describes ElectLeader_r in species form: interned canonical state
// keys over the shared pair dynamics, with Release-based table eviction. The
// model captures the instance — a species run starts from exactly this
// instance's configuration and consumes its protocol PRNG. Per-agent
// identity surfaces (LeaderIndex, snapshots, transient injection) do not
// survive compaction; the engine degrades them per the capability table
// (DESIGN.md §8). Synthetic-coin mode has no species form at all: the coin
// state is per-agent identity by construction (Appendix B), and the backend
// resolver rejects the combination before ever calling Compact.
func (p *Protocol) Compact() sim.CompactModel {
	if p.synthetic {
		panic("core: synthetic-coin mode has no species form (per-agent coin state); run the agent backend")
	}
	return newCompactModel(p).model(p)
}

// model assembles the sim.CompactModel view over m, capturing p for Init.
func (m *compactModel) model(p *Protocol) sim.CompactModel {
	return m.modelWith(func() ([]uint64, []int64) {
		order := make([]uint64, 0, 8)
		counts := make(map[uint64]int64, 8)
		for i := range p.agents {
			k := m.keyOf(&p.agents[i])
			if counts[k] == 0 {
				order = append(order, k)
			}
			counts[k]++
		}
		occ := make([]int64, len(order))
		for i, k := range order {
			occ[i] = counts[k]
		}
		return order, occ
	})
}

// CompactClean builds ElectLeader_r's species form directly in the clean
// post-awakening configuration — one interned clean-ranker state with count
// n — without constructing the O(n·r) agent instance Compact starts from.
// The clean start is identity-free by construction (every agent a fresh
// ranker, and canonical keys exclude the inert coin state), so the result is
// bit-for-bit equivalent to core.New(n, r, opts...).Compact() at matched
// seeds: New consumes no PRNG draws during construction, and reinitRanker is
// deterministic, so both forms enter React with identical intern tables and
// identical sampling streams (pinned by TestCompactCleanMirrorsCompact).
// Synthetic-coin mode has no species form and is rejected.
func CompactClean(n, r int, opts ...Option) (sim.CompactModel, error) {
	m, err := newCleanCompactModel(n, r, opts...)
	if err != nil {
		return sim.CompactModel{}, err
	}
	return m.cleanModel(), nil
}

// cleanModel assembles the species form over the clean post-awakening
// configuration: a single interned fresh-ranker state holding all n agents.
func (m *compactModel) cleanModel() sim.CompactModel {
	return m.modelWith(func() ([]uint64, []int64) {
		var clean Agent
		m.dyn.reinitRanker(&clean)
		return []uint64{m.keyOf(&clean)}, []int64{int64(m.n)}
	})
}

// newCleanCompactModel builds the interning machinery of CompactClean
// without an instance. Split from CompactClean so the equivalence test can
// reach the intern table, mirroring newCompactModel's role for Compact.
func newCleanCompactModel(n, r int, opts ...Option) (*compactModel, error) {
	cfg, dyn, err := resolve(n, r, opts)
	if cfg.synthetic {
		return nil, fmt.Errorf("core: synthetic-coin mode has no species form (per-agent coin state); run the agent backend")
	}
	if err != nil {
		return nil, err
	}
	return dyn.compactModel(coin.FromPRNG(rng.New(cfg.seed))), nil
}

// newCompactModel builds the interning machinery for a species run of p.
// Split from Compact so the exact-mirror test can reach the intern table.
func newCompactModel(p *Protocol) *compactModel {
	return p.dyn.compactModel(coin.FromPRNG(p.src))
}

// compactModel builds an empty intern table over dynamics detached from d,
// drawing protocol randomness from sample.
func (d *dynamics) compactModel(sample coin.Sampler) *compactModel {
	m := &compactModel{
		dyn:       d.detached(),
		n:         d.n,
		sample:    sample,
		rankEpoch: make([]uint64, d.n),
	}
	m.admit = m.admitState
	return m
}

// modelWith assembles the sim.CompactModel view over m with the given
// initial-configuration builder (Compact interns an instance's agents;
// CompactClean interns the single clean-ranker state).
func (m *compactModel) modelWith(init func() ([]uint64, []int64)) sim.CompactModel {
	return sim.CompactModel{
		// Keys are recycled table ids, and the table's live entries never
		// exceed the occupied states plus the two successors a reaction
		// interns before the engine reaps the pair it consumed: at most
		// n + 2, so every id stays below it (pinned by compact_bound_test.go).
		StateSpace: uint64(m.n) + 2,
		Init:       init,
		React:      m.react,
		Leader:     func(key uint64) bool { return rankOutputOf(&m.tab[key]) == 1 },
		Rank:       func(key uint64) int32 { return rankOutputOf(&m.tab[key]) },
		SafeSet:    m.safeSet,
		Churn: &sim.CompactChurn{
			MinN: m.n,
			MaxN: m.n,
			Join: m.join,
		},
		Release: m.release,
	}
}
