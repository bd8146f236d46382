// harness.go provides a standalone DetectCollision_r population over a fixed
// rank assignment, used to validate Lemma E.1 in isolation (experiments T7
// and T8) and as the substrate for adversarial-initialization tooling.

package detect

import (
	"fmt"

	"sspp/internal/coin"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// Harness runs DetectCollision_r alone: every agent has a fixed rank (the
// module's read-only input) and a detection state; the wrapper layers of
// StableVerify_r are absent.
type Harness struct {
	params *Params
	ranks  []int32
	states []*State
	sample coin.Sampler
	sc     *Scratch
}

var _ sim.Protocol = (*Harness)(nil)

// NewHarness builds a harness over n agents with trade-off parameter r and
// the given rank assignment (1-based; nil means the identity ranking 1..n).
// All detection states start from the clean initialization q0,DC.
func NewHarness(n, r int, ranks []int32, src *rng.PRNG) (*Harness, error) {
	if n < 2 {
		return nil, fmt.Errorf("detect: population size %d < 2", n)
	}
	if ranks == nil {
		ranks = make([]int32, n)
		for i := range ranks {
			ranks[i] = int32(i + 1)
		}
	}
	if len(ranks) != n {
		return nil, fmt.Errorf("detect: %d ranks for %d agents", len(ranks), n)
	}
	p := NewParams(n, r)
	h := &Harness{
		params: p,
		ranks:  append([]int32(nil), ranks...),
		states: make([]*State, n),
		sample: coin.FromPRNG(src),
		sc:     NewScratch(),
	}
	for i, rank := range h.ranks {
		if rank < 1 || int(rank) > n {
			return nil, fmt.Errorf("detect: rank %d of agent %d outside [1, %d]", rank, i, n)
		}
		h.states[i] = InitState(p, rank)
	}
	return h, nil
}

// N returns the population size.
func (h *Harness) N() int { return len(h.ranks) }

// Params returns the harness's detection parameters.
func (h *Harness) Params() *Params { return h.params }

// Interact applies one DetectCollision_r interaction.
func (h *Harness) Interact(a, b int) {
	Interact(h.params, h.ranks[a], h.states[a], h.ranks[b], h.states[b], h.sample, h.sample, h.sc)
}

// Correct reports whether at least one agent has raised ⊤. This orientation
// suits the completeness experiments, which measure time-to-detection; the
// soundness experiments instead assert that Correct never becomes true.
func (h *Harness) Correct() bool { return h.AnyTop() }

// AnyTop reports whether any agent is in the error state ⊤.
func (h *Harness) AnyTop() bool {
	for _, s := range h.states {
		if s.Err {
			return true
		}
	}
	return false
}

// TopCount returns the number of agents currently in ⊤.
func (h *Harness) TopCount() int {
	c := 0
	for _, s := range h.states {
		if s.Err {
			c++
		}
	}
	return c
}

// State returns agent i's detection state (shared, not a copy).
func (h *Harness) State(i int) *State { return h.states[i] }

// Rank returns agent i's rank.
func (h *Harness) Rank(i int) int32 { return h.ranks[i] }

// CheckMessageConservation verifies that every message (rank, ID) of every
// group has exactly one holder — the invariant a clean initialization
// establishes and the protocol preserves (observations 2 and 3 of Appendix
// E.1). It only applies to runs started from q0,DC with a correct ranking.
func (h *Harness) CheckMessageConservation() error {
	pt := h.params.pt
	holders := make(map[int64]int)
	for i, s := range h.states {
		if s.Err {
			return nil // after ⊤ the wrapper resets; conservation no longer meaningful
		}
		g := pt.Group(h.ranks[i])
		if g < 0 {
			continue
		}
		start := pt.GroupStart(g)
		for idx, row := range s.Msgs {
			govRank := start + int32(idx)
			for _, m := range row {
				key := int64(govRank)<<32 | int64(m.id)
				holders[key]++
				if holders[key] > 1 {
					return fmt.Errorf("detect: message (%d,%d) held %d times", govRank, m.id, holders[key])
				}
			}
		}
	}
	// Every ID must be held exactly once: count totals per group.
	perGroup := make(map[int32]int)
	for key := range holders {
		rank := int32(key >> 32)
		perGroup[pt.Group(rank)]++
	}
	for g, count := range perGroup {
		size := int(pt.GroupSize(g))
		want := size * 2 * size * size // g ranks × 2g² IDs
		if count != want {
			return fmt.Errorf("detect: group %d holds %d distinct messages, want %d", g, count, want)
		}
	}
	return nil
}

// CheckRestriction validates the §5.1 state-space restriction for every
// agent (own held messages match own observations).
func (h *Harness) CheckRestriction() error {
	for i, s := range h.states {
		if err := CheckStateRestriction(h.params, h.ranks[i], s); err != nil {
			return fmt.Errorf("agent %d: %w", i, err)
		}
	}
	return nil
}

// ClumpRankMessages moves every circulating message governed by rank into
// the single holder agent, which must have a different rank in the same
// group (moving a foreign message never violates the §5.1 restriction).
// The result is the adversarial "clumped" distribution that BalanceLoad
// (Protocol 14) exists to disperse: the per-rank holding invariant is
// maximally violated while the message multiset is preserved. Experiment A4
// measures detection latency from here with and without balancing. The
// holder's row is re-sorted to keep the row invariant (State.Msgs).
func (h *Harness) ClumpRankMessages(rank int32, holder int) error {
	pt := h.params.pt
	if h.ranks[holder] == rank {
		return fmt.Errorf("detect: holder %d has rank %d itself", holder, rank)
	}
	if !pt.SameGroup(h.ranks[holder], rank) {
		return fmt.Errorf("detect: holder rank %d not in rank %d's group", h.ranks[holder], rank)
	}
	idx := pt.RankIdx(rank)
	dst := h.states[holder]
	for i, s := range h.states {
		if i == holder || int(idx) >= len(s.Msgs) {
			continue
		}
		dst.Msgs[idx] = append(dst.Msgs[idx], s.Msgs[idx]...)
		s.Msgs[idx] = s.Msgs[idx][:0]
	}
	sortMsgs(dst.Msgs[idx])
	return nil
}

// CheckCoherence verifies that a subpopulation's detection layer is in a
// configuration a clean run could have produced: every (rank, ID) message
// has at most one holder within the subpopulation, and every message whose
// governing rank belongs to the subpopulation matches that governor's
// observation. Together with a correct ranking this implies no ⊤ is ever
// raised (the three trigger conditions of Protocol 3 are all excluded, and
// the update rules preserve coherence) — it is the checkable heart of
// Lemma 6.1's condition (b). Agents in ⊤ make the subpopulation incoherent
// by definition.
func CheckCoherence(p *Params, ranks []int32, states []*State) error {
	if len(ranks) != len(states) {
		return fmt.Errorf("detect: %d ranks for %d states", len(ranks), len(states))
	}
	pt := p.pt
	// Locate each rank's governor observation array within the bucket.
	obsOf := make(map[int32][]int32, len(ranks))
	for i, rank := range ranks {
		if states[i].Err {
			return fmt.Errorf("detect: agent %d is in ⊤", i)
		}
		obsOf[rank] = states[i].Obs
	}
	holders := make(map[int64]bool)
	for i, s := range states {
		g := pt.Group(ranks[i])
		if g < 0 {
			continue
		}
		start := pt.GroupStart(g)
		for idx, row := range s.Msgs {
			govRank := start + int32(idx)
			for _, m := range row {
				key := int64(govRank)<<32 | int64(m.id)
				if holders[key] {
					return fmt.Errorf("detect: message (%d,%d) has two holders", govRank, m.id)
				}
				holders[key] = true
				if obs, ok := obsOf[govRank]; ok {
					if m.id < 1 || int(m.id) > len(obs) {
						return fmt.Errorf("detect: message (%d,%d) outside the ID space", govRank, m.id)
					}
					if obs[m.id-1] != m.content {
						return fmt.Errorf("detect: message (%d,%d) content %d != governor observation %d",
							govRank, m.id, m.content, obs[m.id-1])
					}
				}
			}
		}
	}
	return nil
}

// TamperForeignMessage corrupts the content of one circulating message held
// by agent holder that is governed by a rank different from the holder's own
// rank. This preserves the §5.1 state restriction (only foreign messages are
// touched) and models an adversarial initialization of the message system
// with a still-correct ranking — the soft-reset scenario of §3.2. It returns
// false when the holder carries no foreign message.
func (h *Harness) TamperForeignMessage(holder int) bool {
	s := h.states[holder]
	rank := h.ranks[holder]
	return TamperForeignMessage(h.params, rank, s)
}

// TamperForeignMessage corrupts one message in s governed by a rank other
// than ownRank, flipping its content to a different value, and re-sorts
// that row. It reports whether a message was modified.
func TamperForeignMessage(p *Params, ownRank int32, s *State) bool {
	idx := p.pt.RankIdx(ownRank)
	for row := range s.Msgs {
		if int32(row) == idx {
			continue
		}
		if len(s.Msgs[row]) == 0 {
			continue
		}
		g := p.pt.SizeOf(ownRank)
		m := &s.Msgs[row][0]
		m.content = m.content%p.sigSpace(g) + 1 // guaranteed different, in-range
		sortMsgs(s.Msgs[row])
		return true
	}
	return false
}

// DuplicateMessageInto copies the first circulating message of src into
// dst's corresponding row, producing a two-holder message — a type-valid but
// inconsistent configuration that the duplicate check of Protocol 3 line 3
// must flag. Both agents must be in the same group. The grown row is
// re-sorted. It reports success.
func DuplicateMessageInto(p *Params, srcRank int32, src *State, dstRank int32, dst *State) bool {
	if !p.pt.SameGroup(srcRank, dstRank) {
		return false
	}
	dstIdx := p.pt.RankIdx(dstRank)
	for row := range src.Msgs {
		if len(src.Msgs[row]) == 0 || int32(row) == dstIdx {
			// Never copy a message governed by dst's own rank: that could
			// violate the §5.1 restriction on dst.
			continue
		}
		if row >= len(dst.Msgs) {
			continue
		}
		dst.Msgs[row] = append(dst.Msgs[row], src.Msgs[row][0])
		sortMsgs(dst.Msgs[row])
		return true
	}
	return false
}
