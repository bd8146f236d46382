// compact.go implements NameRank's Compactable capability: the protocol
// describes itself as a sim.CompactModel — dynamics over state keys with
// counts — which the species backend (internal/species) runs with
// per-interaction cost depending on occupied states, not n. The model
// captures the instance it is derived from, so a species run starts from
// exactly the agent-level instance's configuration (including the seeded
// name draw), which is what lets the backend-equivalence tests pair trials
// at matched seeds. CIW and LooseLE get the same property from their shared
// rules (keyed.go).

package baseline

import (
	"encoding/binary"
	"sort"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

// NameRank's species form: CIW's and LooseLE's come from their shared
// rules (keyed.Compact).
var _ sim.Compactable = (*NameRank)(nil)

// nameState is one interned NameRank agent state: the agent's own name, the
// sorted set of names it has seen, and its committed rank (0 undecided).
type nameState struct {
	own  int64
	seen []int64
	rank int32
}

// encodeNameState renders the state canonically for interning.
func encodeNameState(st nameState) string {
	b := make([]byte, 12, 12+8*len(st.seen))
	binary.LittleEndian.PutUint64(b, uint64(st.own))
	binary.LittleEndian.PutUint32(b[8:], uint32(st.rank))
	for _, v := range st.seen {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return string(b)
}

// Compact describes NameRank in species form. Its states (name sets) are
// too rich for a packed key, so the model interns them: keys index a table
// owned by the model, and identical states share one key so the multiset
// semantics are preserved — including initial name collisions, which leave
// the run uncommittable in both backends alike.
func (nr *NameRank) Compact() sim.CompactModel {
	n := nr.n
	var tab []nameState
	intern := make(map[string]uint64)
	keyOf := func(st nameState) uint64 {
		enc := encodeNameState(st)
		if id, ok := intern[enc]; ok {
			return id
		}
		id := uint64(len(tab))
		tab = append(tab, st)
		intern[enc] = id
		return id
	}
	commit := func(st *nameState) {
		if st.rank == 0 && len(st.seen) >= n {
			st.rank = int32(sort.Search(len(st.seen), func(k int) bool {
				return st.seen[k] >= st.own
			})) + 1
		}
	}
	// permutation polls reuse one epoch-tagged seen buffer and one visitor,
	// so a poll allocates nothing: seen[r] == epoch marks rank r as taken.
	seen := make([]uint32, n+1)
	var epoch uint32
	ok := true
	visit := func(key uint64, c int64) bool {
		r := tab[key].rank
		if c != 1 || r < 1 || int(r) > n || seen[r] == epoch {
			ok = false
			return false
		}
		seen[r] = epoch
		return true
	}
	permutation := func(v sim.CountView) bool {
		if v.Occupied() != n {
			return false
		}
		if epoch++; epoch == 0 { // wrapped: clear stale tags once
			clear(seen)
			epoch = 1
		}
		ok = true
		v.Each(visit)
		return ok
	}
	return sim.CompactModel{
		Deterministic: true,
		Init: func() ([]uint64, []int64) {
			counts := make(map[uint64]int64, n)
			order := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				st := nameState{
					own:  nr.names[i],
					seen: append([]int64(nil), nr.seen[i]...),
					rank: nr.rank[i],
				}
				k := keyOf(st)
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
		},
		React: func(a, b uint64, _ *rng.PRNG) (uint64, uint64) {
			sa, sb := tab[a], tab[b]
			if sa.rank != 0 && sb.rank != 0 {
				return a, b // both committed: silent
			}
			merged := mergeSorted(sa.seen, sb.seen)
			na := nameState{own: sa.own, seen: merged, rank: sa.rank}
			nb := nameState{own: sb.own, seen: merged, rank: sb.rank}
			commit(&na)
			commit(&nb)
			return keyOf(na), keyOf(nb)
		},
		Leader:  func(key uint64) bool { return tab[key].rank == 1 },
		Rank:    func(key uint64) int32 { return tab[key].rank },
		Correct: permutation,
		SafeSet: permutation,
	}
}
