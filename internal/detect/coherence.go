// coherence.go provides the allocation-free coherence check used by the
// safe-set predicate. CheckCoherence (harness.go) is the error-reporting
// reference used by tests and tooling; Coherent below is the boolean
// equivalent that the simulation hot path polls, backed by reusable buffers
// so that repeated polls never allocate.

package detect

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
	// rank governs a block of 2g² message IDs (g its group size).
	base []int64
	// tags is a bitset over those offsets: bit off is set once the message
	// at off has a holder (the single-holder check).
	tags []uint64
	// obsTag/obs register, per rank, the governor's observation array for
	// the current epoch.
	obsTag []uint32
	obs    [][]int32
	epoch  uint32
}

// NewCohScratch returns an empty coherence scratch.
func NewCohScratch() *CohScratch { return &CohScratch{} }

// prepare sizes the buffers for p's rank space and starts a new epoch.
func (sc *CohScratch) prepare(p *Params) {
	n := p.pt.N()
	if sc.params != p || len(sc.base) != n {
		sc.params = p
		sc.base = make([]int64, n)
		var off int64
		for rank := int32(1); rank <= int32(n); rank++ {
			g := int64(p.pt.SizeOf(rank))
			sc.base[rank-1] = off
			off += 2 * g * g
		}
		sc.tags = make([]uint64, (off+63)/64)
		sc.obsTag = make([]uint32, n)
		sc.obs = make([][]int32, n)
		sc.epoch = 0
	}
	clear(sc.tags)
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
func Coherent(p *Params, ranks []int32, states []*State, sc *CohScratch) bool {
	if len(ranks) != len(states) {
		return false
	}
	sc.prepare(p)
	for i, rank := range ranks {
		if states[i].Err {
			return false
		}
		if rank >= 1 && int(rank) <= len(sc.obsTag) {
			sc.obsTag[rank-1] = sc.epoch
			sc.obs[rank-1] = states[i].Obs
		}
	}
	pt := p.pt
	for i, s := range states {
		g := pt.Group(ranks[i])
		if g < 0 {
			continue
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
				if governed && sc.obs[govRank-1][m.id-1] != m.content {
					return false
				}
			}
		}
	}
	return true
}
