// coherence.go provides the allocation-free coherence check used by the
// safe-set predicate. CheckCoherence (harness.go) is the error-reporting
// reference used by tests and tooling; Coherent below is the boolean
// equivalent that the simulation hot path polls, backed by reusable buffers
// so that repeated polls never allocate.

package detect

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// splitMinMessages is the smallest rank space, in messages (n·2g² for equal
// groups), whose walk is split across cores. Measured on two cores with
// the other core idle, clean populations: a split walk took 1.2× as long
// as the serial one at 6 k messages (n, r = 48, 8), 0.85× at 32 k
// (64, 16), 0.68× at 65 k (128, 16) and 0.55× at 2 M (256, 64). When every
// core is busy, a handed-off helper waits for a core while the caller
// walks the groups itself, so the split costs one hand-off: an Ensemble at
// (256, 64) with one worker per core took as long with the split as
// without it.
const splitMinMessages = 1 << 16

// tagAlign aligns each group's region of the holder bitset to a cache line
// (512 bits), so the helpers walking adjacent groups never write one word,
// nor share a line.
const tagAlign = 512

// CohScratch holds the reusable buffers of Coherent. One CohScratch serves
// all coherence checks of a single Params' rank space; it grows lazily on
// first use. The holder bitset is cleared per call (n·2g² bits, a 64th of the
// words a full walk touches); the governor registry is reset by epoch
// tagging. It is not safe for concurrent use.
type CohScratch struct {
	// params identifies the Params the buffers were laid out for; a
	// different Params (even with the same rank-space size but another
	// partition) forces a re-layout.
	params *Params
	// base[rank-1] is the offset of rank's message block within tags; each
	// rank governs a block of 2g² message IDs (g its group size), and each
	// group's blocks start on a tagAlign boundary.
	base []int64
	// tags is a bitset over those offsets: bit off is set once the message
	// at off has a holder (the single-holder check). Group g owns the words
	// tags[word[g]:word[g+1]].
	tags []uint64
	word []int64
	// obsTag/obs register, per rank, the governor's observation array for
	// the current epoch.
	obsTag []uint32
	obs    [][]int32
	epoch  uint32

	// The split walk: the agents of group g are order[at[g]:at[g+1]],
	// indices into the current call's ranks and states. Group tasks are
	// claimed through next; the first failing one sets failed.
	order  []int32
	at     []int32
	ranks  []int32
	states []*State
	next   atomic.Int32
	failed atomic.Bool
	wg     sync.WaitGroup
}

// NewCohScratch returns an empty coherence scratch.
func NewCohScratch() *CohScratch { return &CohScratch{} }

// prepare sizes the buffers for p's rank space and starts a new epoch.
func (sc *CohScratch) prepare(p *Params) {
	pt := p.pt
	n := pt.N()
	if sc.params != p || len(sc.base) != n {
		sc.params = p
		sc.base = make([]int64, n)
		sc.word = make([]int64, pt.NumGroups()+1)
		var off int64
		for g := range pt.NumGroups() {
			off = (off + tagAlign - 1) / tagAlign * tagAlign
			sc.word[g] = off / 64
			start, size := pt.GroupStart(int32(g)), int64(pt.GroupSize(int32(g)))
			for rank := start; rank < start+int32(size); rank++ {
				sc.base[rank-1] = off
				off += 2 * size * size
			}
		}
		sc.word[pt.NumGroups()] = (off + 63) / 64
		sc.tags = make([]uint64, (off+63)/64)
		sc.obsTag = make([]uint32, n)
		sc.obs = make([][]int32, n)
		sc.at = make([]int32, pt.NumGroups()+1)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // epoch counter wrapped: clear stale governor tags once
		clear(sc.obsTag)
		sc.epoch = 1
	}
}

// Coherent reports whether the subpopulation's detection layer is coherent:
// every (rank, ID) message has at most one holder within the subpopulation,
// and every message whose governing rank belongs to the subpopulation matches
// that governor's observation. It is the allocation-free equivalent of
// CheckCoherence, with two tightenings: a circulating message whose ID lies
// outside its governing rank's ID space [1, 2g²], and a row (beyond the
// agent's g) that governs no rank of [1, n], make the subpopulation
// incoherent. Neither can arise from any clean initialization, and
// CheckMessageConsistency would raise ⊤ on an out-of-space message at the
// first meeting. Agents in ⊤ are incoherent by definition.
//
// A clean agent's rows govern only ranks of its own group, so the walk
// splits into one task per group, each over its own region of the holder
// bitset; on a large enough rank space the tasks are shared with idle
// helper goroutines. An agent with more rows than its group size governs
// ranks of the next group, and sends the whole walk down the serial path.
func Coherent(p *Params, ranks []int32, states []*State, sc *CohScratch) bool {
	if len(ranks) != len(states) {
		return false
	}
	sc.prepare(p)
	pt := p.pt
	spill := false
	for i, rank := range ranks {
		if states[i].Err {
			return false
		}
		if g := pt.Group(rank); g >= 0 {
			sc.obsTag[rank-1] = sc.epoch
			sc.obs[rank-1] = states[i].Obs
			spill = spill || len(states[i].Msgs) > int(pt.GroupSize(g))
		}
	}
	if spill || pt.NumGroups() == 1 || len(sc.tags)*64 < splitMinMessages || runtime.GOMAXPROCS(0) == 1 {
		clear(sc.tags)
		for i, s := range states {
			if !sc.walkAgent(ranks[i], s) {
				return false
			}
		}
		return true
	}
	return sc.walkSplit(ranks, states)
}

// walkAgent checks the rows of one agent of the given rank: it marks each
// message's holder bit and compares the message with its governor's
// registered observation. Agents of out-of-range rank govern nothing and
// are skipped.
func (sc *CohScratch) walkAgent(rank int32, s *State) bool {
	pt := sc.params.pt
	g := pt.Group(rank)
	if g < 0 {
		return true
	}
	start := pt.GroupStart(g)
	for idx, row := range s.Msgs {
		govRank := start + int32(idx)
		if govRank < 1 || int(govRank) > len(sc.base) {
			return false
		}
		gsz := int64(pt.SizeOf(govRank))
		space := 2 * gsz * gsz
		base := sc.base[govRank-1]
		governed := sc.obsTag[govRank-1] == sc.epoch
		obs := sc.obs[govRank-1]
		for _, m := range row {
			if m.id < 1 || int64(m.id) > space {
				return false
			}
			off := base + int64(m.id) - 1
			word, bit := off>>6, uint64(1)<<(off&63)
			if sc.tags[word]&bit != 0 {
				return false // two holders of one message
			}
			sc.tags[word] |= bit
			if governed && (int(m.id) > len(obs) || obs[m.id-1] != m.content) {
				return false
			}
		}
	}
	return true
}

// walkSplit buckets the agents by group and walks the groups as separate
// tasks, shared with as many idle helpers as there are spare cores. It
// never waits for a helper to become free: the caller walks whatever the
// helpers do not claim.
func (sc *CohScratch) walkSplit(ranks []int32, states []*State) bool {
	pt := sc.params.pt
	groups := pt.NumGroups()
	clear(sc.at)
	for _, rank := range ranks {
		if g := pt.Group(rank); g >= 0 {
			sc.at[g+1]++
		}
	}
	for g := range groups {
		sc.at[g+1] += sc.at[g]
	}
	if cap(sc.order) < len(ranks) {
		sc.order = make([]int32, len(ranks))
	}
	sc.order = sc.order[:int(sc.at[groups])]
	for i, rank := range ranks {
		if g := pt.Group(rank); g >= 0 {
			sc.order[sc.at[g]] = int32(i)
			sc.at[g]++
		}
	}
	copy(sc.at[1:], sc.at[:groups]) // the fill advanced each start to its end
	sc.at[0] = 0

	sc.ranks, sc.states = ranks, states
	sc.next.Store(0)
	sc.failed.Store(false)
	helpers := min(runtime.GOMAXPROCS(0), groups) - 1
	work := cohWork()
	for k := 0; k < helpers; k++ {
		sc.wg.Add(1)
		select {
		case work <- sc:
		default: // no helper idle: the caller walks the rest
			sc.wg.Done()
			k = helpers
		}
	}
	sc.drain()
	sc.wg.Wait()
	sc.ranks, sc.states = nil, nil
	return !sc.failed.Load()
}

// drain claims group tasks until none is left or one has failed.
func (sc *CohScratch) drain() {
	groups := int32(len(sc.at) - 1)
	for !sc.failed.Load() {
		g := sc.next.Add(1) - 1
		if g >= groups {
			return
		}
		if !sc.walkGroup(g) {
			sc.failed.Store(true)
		}
	}
}

// walkGroup clears group g's region of the holder bitset and walks the
// group's agents.
func (sc *CohScratch) walkGroup(g int32) bool {
	clear(sc.tags[sc.word[g]:sc.word[g+1]])
	for _, i := range sc.order[sc.at[g]:sc.at[g+1]] {
		if !sc.walkAgent(sc.ranks[i], sc.states[i]) {
			return false
		}
	}
	return true
}

// cohHelpers is the package's pool of walk helpers, started on the first
// split walk: one goroutine per spare core, each blocked on an unbuffered
// channel, so a send succeeds only while a helper is idle.
var cohHelpers struct {
	once sync.Once
	work chan *CohScratch
}

// cohWork returns the helpers' work channel, starting them on first use.
func cohWork() chan *CohScratch {
	cohHelpers.once.Do(func() {
		cohHelpers.work = make(chan *CohScratch)
		for range max(runtime.NumCPU(), runtime.GOMAXPROCS(0)) - 1 {
			go func() {
				for sc := range cohHelpers.work {
					sc.drain()
					sc.wg.Done()
				}
			}()
		}
	})
	return cohHelpers.work
}
