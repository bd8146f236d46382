// namerank.go implements the names-broadcast ranking sketched in Appendix D
// and used by [16]: every agent draws a name from [n³] u.a.r., the set of
// all names is spread by a union epidemic, and once an agent has seen n
// distinct names it ranks itself by the position of its own name in the
// sorted order. The protocol needs O(n·log n) bits per agent — the
// state-space cost the paper's deputy construction avoids — and completes in
// O(n·log n) interactions w.h.p. It is not self-stabilizing: it serves as a
// ranking-layer baseline (experiment T3/T11 context).

package baseline

import (
	"sort"

	"sspp/internal/coin"
	"sspp/internal/sim"
)

// NameRank is the names-broadcast ranking baseline.
type NameRank struct {
	n     int
	names []int64   // own name per agent
	seen  [][]int64 // sorted set of names seen, per agent
	rank  []int32   // 0 until decided
}

// NameRank ranks but is not Injectable: it is not self-stabilizing, so an
// adversarial rewrite has no recovery guarantee to measure. Its safe set is
// the committed permutations: committed agents never change rank, so a
// correct configuration is correct forever.
var (
	_ sim.Protocol   = (*NameRank)(nil)
	_ sim.Ranker     = (*NameRank)(nil)
	_ sim.SafeSetter = (*NameRank)(nil)
)

// NewNameRank returns a NameRank over n agents, drawing names from [n³]
// using sample. Name collisions (probability O(1/n)) leave some agents
// unranked; Correct() then stays false, mirroring the w.h.p. guarantee.
func NewNameRank(n int, sample coin.Sampler) *NameRank {
	nr := &NameRank{
		n:     n,
		names: make([]int64, n),
		seen:  make([][]int64, n),
		rank:  make([]int32, n),
	}
	space := n * n * n
	for i := range nr.names {
		nr.names[i] = int64(sample(space)) + 1
		nr.seen[i] = []int64{nr.names[i]}
	}
	return nr
}

// N returns the population size.
func (nr *NameRank) N() int { return len(nr.names) }

// Interact merges the two agents' name sets; an agent that has collected n
// names commits to the rank of its own name in sorted order.
func (nr *NameRank) Interact(a, b int) {
	if nr.rank[a] != 0 && nr.rank[b] != 0 {
		return // both committed: silent
	}
	merged := mergeSorted(nr.seen[a], nr.seen[b])
	nr.seen[a] = merged
	nr.seen[b] = append([]int64(nil), merged...)
	for _, i := range [2]int{a, b} {
		if nr.rank[i] == 0 && len(nr.seen[i]) >= nr.n {
			nr.rank[i] = int32(sort.Search(len(nr.seen[i]), func(k int) bool {
				return nr.seen[i][k] >= nr.names[i]
			})) + 1
		}
	}
}

// mergeSorted returns the sorted union of two sorted slices without
// duplicates.
func mergeSorted(x, y []int64) []int64 {
	out := make([]int64, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case x[i] > y[j]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

// Correct reports whether every agent has committed to a rank and the ranks
// form a permutation of [1, n].
func (nr *NameRank) Correct() bool {
	seen := make([]bool, nr.n)
	for _, r := range nr.rank {
		if r < 1 || int(r) > nr.n || seen[r-1] {
			return false
		}
		seen[r-1] = true
	}
	return true
}

// RankOutput returns agent i's committed rank (0 if undecided).
func (nr *NameRank) RankOutput(i int) int32 { return nr.rank[i] }

// CorrectRanking reports whether the committed ranks form a permutation;
// for NameRank this coincides with Correct.
func (nr *NameRank) CorrectRanking() bool { return nr.Correct() }

// Leaders returns the number of agents committed to rank 1.
func (nr *NameRank) Leaders() int {
	leaders := 0
	for _, r := range nr.rank {
		if r == 1 {
			leaders++
		}
	}
	return leaders
}

// LeaderIndex returns the unique rank-1 agent, or ok = false when there is
// not exactly one.
func (nr *NameRank) LeaderIndex() (int, bool) {
	idx, leaders := -1, 0
	for i, r := range nr.rank {
		if r == 1 {
			idx = i
			leaders++
		}
	}
	return idx, leaders == 1
}

// InSafeSet reports whether every agent has committed and the ranks form a
// permutation: committed agents never change rank and a fully committed
// pair interacts silently, so such a configuration is correct forever.
func (nr *NameRank) InSafeSet() bool { return nr.Correct() }

// Bits returns the current memory footprint of agent i in bits: 3·log₂(n)
// per stored name. This measures the O(n·log n)-bit cost the paper's deputy
// broadcast avoids.
func (nr *NameRank) Bits(i int) int {
	perName := 1
	for v := 2; v < nr.n*nr.n*nr.n; v <<= 1 {
		perName++
	}
	return perName * (len(nr.seen[i]) + 1)
}
