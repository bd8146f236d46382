// Package baseline implements the comparison protocols that anchor the
// paper's trade-off (Section 2, Related Work):
//
//   - CIW: the classic n-state silent self-stabilizing ranking in the style
//     of Cai, Izumi, and Wada (Theory Comput. Syst. 2012) — the
//     state-optimal anchor with Θ(n²) expected stabilization time.
//   - NameRank: the O(n³)-names broadcast ranking described by [16] and in
//     Appendix D as the state-heavy alternative for the time-optimal regime
//     (O(n·log n) bits, O(n·log n) interactions, not self-stabilizing).
//   - LooseLE: a loosely-stabilizing leader election in the style of Sudo
//     et al. (TCS 2012 / DISC 2021): fast convergence from any
//     configuration, but the leader is only held for a finite (tunable)
//     time rather than forever.
//
// CIW and LooseLE are keyed baselines: each is written once, as rules over
// a per-agent state key (keyed.go), and the agent executor and the species
// form (CompactModel) both run those rules, so the two backends cannot
// drift apart. NameRank's name sets are too rich for a packed key; its
// species form interns them (compact.go).
package baseline

import (
	"fmt"

	"sspp/internal/adversary"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// CIW is an n-state silent self-stabilizing ranking protocol: each agent's
// whole state is its rank in [1, n] (the rank is the key); when two agents
// with the same rank k interact, the responder moves to rank k mod n + 1.
// Stable configurations are exactly the permutations (the protocol is
// silent there), and from any configuration a permutation is reached with
// probability 1, in Θ(n²) expected interactions for the leader-election
// output.
type CIW struct {
	keyed
	seen []uint64 // CorrectRanking's reusable rank bitset
}

// CIW exposes the ranking and safe-set capabilities of the run engine; its
// safe set is exactly the permutation configurations, where the protocol is
// silent (no interaction changes any state), so "correct ranking" is
// "correct forever".
var (
	_ sim.Protocol      = (*CIW)(nil)
	_ sim.Ranker        = (*CIW)(nil)
	_ sim.SafeSetter    = (*CIW)(nil)
	_ sim.Injectable    = (*CIW)(nil)
	_ sim.Churnable     = (*CIW)(nil)
	_ sim.StateKeyer    = (*CIW)(nil)
	_ sim.LeaderIndexer = (*CIW)(nil)
	_ sim.Compactable   = (*CIW)(nil)
)

// ciwRules is CIW's one rule set. In species form the safe set — the
// permutations — is exactly "every state is a singleton", an O(1) check on
// the occupied-state tally.
var ciwRules = &rules{
	name:     "CIW",
	space:    func(n int) uint64 { return uint64(n) + 1 },
	diagonal: true,
	react: func(a, b uint64, n int) (uint64, uint64) {
		if a == b {
			return a, a%uint64(n) + 1
		}
		return a, b
	},
	leader: func(key uint64) bool { return key == 1 },
	rank:   func(key uint64) int32 { return int32(key) },
	safeSet: func(v sim.CountView) bool {
		// A permutation is the only way n agents occupy n distinct
		// states when every state is a rank in [1, n].
		return v.Occupied() == v.N()
	},
	// Realizable join classes: "" / clean-rankers (rank 1, the canonical
	// initial state), random-garbage (a uniform rank in the new [1, n]), and
	// duplicate-ranks (copying a uniformly chosen existing agent's rank).
	join: func(class adversary.Class, n int, existing func() uint64, src *rng.PRNG) (uint64, bool) {
		switch class {
		case "", adversary.ClassCleanRankers:
			return 1, true
		case adversary.ClassRandomGarbage:
			return ciwRandom(n, src), true
		case adversary.ClassDuplicateRanks:
			return existing(), true
		}
		return 0, false
	},
	random: ciwRandom,
	clamp: func(key uint64, n int) uint64 {
		if key > uint64(n) {
			return uint64(n)
		}
		return key
	},
}

// ciwRandom draws a uniform rank in [1, n].
func ciwRandom(n int, src *rng.PRNG) uint64 { return uint64(src.Intn(n)) + 1 }

// NewCIW returns a CIW instance over n agents starting from the all-rank-1
// configuration (the canonical worst-ish case).
func NewCIW(n int) *CIW {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = 1
	}
	return &CIW{keyed: keyed{keys: keys, rules: ciwRules}}
}

// NewCIWFromRanks returns a CIW instance with the given initial rank beliefs
// (values are clamped into [1, n]); the slice is copied.
func NewCIWFromRanks(ranks []int32) *CIW {
	keys := make([]uint32, len(ranks))
	for i, r := range ranks {
		keys[i] = uint32(ciwRules.clamp(uint64(max(r, 1)), len(ranks)))
	}
	return &CIW{keyed: keyed{keys: keys, rules: ciwRules}}
}

// RankOutput returns agent i's rank output (the whole state is the rank).
func (c *CIW) RankOutput(i int) int32 { return c.rules.rank(c.StateKey(i)) }

// CorrectRanking reports whether the ranks form a permutation of [1, n]. It
// marks ranks in a bitset kept across calls, so safe-set polling does not
// allocate.
func (c *CIW) CorrectRanking() bool {
	n := len(c.keys)
	words := (n + 63) / 64
	if cap(c.seen) < words {
		c.seen = make([]uint64, words)
	}
	c.seen = c.seen[:words]
	clear(c.seen)
	for _, k := range c.keys {
		if k < 1 || int(k) > n {
			return false
		}
		w, bit := (k-1)/64, uint64(1)<<((k-1)%64)
		if c.seen[w]&bit != 0 {
			return false
		}
		c.seen[w] |= bit
	}
	return true
}

// InSafeSet reports whether the configuration is a permutation: CIW is
// silent there (the (k, k) rule never fires again), so the output is
// correct forever — the protocol's safe set.
func (c *CIW) InSafeSet() bool { return c.CorrectRanking() }

// Inject rewrites the CIW configuration according to the adversary class.
// Realizable classes: clean-rankers (the all-rank-1 worst-ish start),
// two-leaders, no-leader, duplicate-ranks, random-garbage. The remaining
// classes describe ElectLeader_r-specific structure (roles, generations,
// messages) with no CIW counterpart and return an error.
func (c *CIW) Inject(class string, src *rng.PRNG) error {
	n := len(c.keys)
	switch adversary.Class(class) {
	case adversary.ClassCleanRankers:
		for i := range c.keys {
			c.keys[i] = 1
		}
	case adversary.ClassTwoLeaders:
		c.shuffledPermutation(src)
		for i, r := range c.keys {
			if r == 2 {
				c.keys[i] = 1 // second leader; rank 2 now missing
				break
			}
		}
	case adversary.ClassNoLeader:
		c.shuffledPermutation(src)
		for i, r := range c.keys {
			if r == 1 {
				c.keys[i] = 2 // rank 2 duplicated; no leader left
				break
			}
		}
	case adversary.ClassDuplicateRanks:
		c.shuffledPermutation(src)
		k := n / 8
		if k < 2 {
			k = 2
		}
		for _, i := range victims(n, k, src) {
			c.keys[i] = c.keys[src.Intn(n)]
		}
	case adversary.ClassRandomGarbage:
		c.randomize(src)
	default:
		return fmt.Errorf("baseline: class %q not realizable for CIW", class)
	}
	return nil
}

// shuffledPermutation sets the ranks to a uniformly random permutation of
// [1, n].
func (c *CIW) shuffledPermutation(src *rng.PRNG) {
	for i := range c.keys {
		c.keys[i] = uint32(i + 1)
	}
	for i := range c.keys {
		j := i + src.Intn(len(c.keys)-i)
		c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
	}
}
