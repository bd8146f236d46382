// correct.go defines the output mapping and correctness predicates of
// ElectLeader_r, plus the checkable core of the safe-set predicate of
// Lemma 6.1: safeWalk.safe holds its generation and message-coherence
// clauses once, for the agent form (InSafeSet) and the species form
// (compactModel.safeSet) alike.

package core

import (
	"sspp/internal/detect"
	"sspp/internal/verify"
)

// RankOutput returns agent i's current rank output: committed rank for
// verifiers, the AssignRanks_r belief for rankers (initialized to 1, per
// Appendix D), and the degenerate belief 1 for resetters.
func (p *Protocol) RankOutput(i int) int32 { return rankOutputOf(&p.agents[i]) }

// rankOutputOf is the identity-free output mapping shared by the agent
// backend (RankOutput) and the species-form compact model (compact.go).
func rankOutputOf(a *Agent) int32 {
	switch a.Role {
	case RoleVerifying:
		return a.Rank
	case RoleRanking:
		if a.AR != nil {
			return a.AR.Rank
		}
		return 1
	default:
		return 1
	}
}

// IsLeader reports whether agent i currently outputs "leader" (rank 1).
func (p *Protocol) IsLeader(i int) bool { return p.RankOutput(i) == 1 }

// Leaders returns the number of agents currently outputting "leader".
// O(1): maintained incrementally (counters.go).
func (p *Protocol) Leaders() int { return int(p.rankCount[0]) }

// LeaderIndex returns the index of the unique leader, or ok = false when the
// configuration does not have exactly one leader. O(1): the counters track
// the index sum of all rank-1 agents, which with exactly one leader is the
// leader itself.
func (p *Protocol) LeaderIndex() (int, bool) {
	if p.rankCount[0] != 1 {
		return 0, false
	}
	return p.leaderSum, true
}

// Correct reports whether exactly one agent outputs "leader" — the
// correctness predicate of self-stabilizing leader election. O(1).
func (p *Protocol) Correct() bool { return p.rankCount[0] == 1 }

// CorrectRanking reports whether the rank outputs form a permutation of
// [1, n] — the stronger ranking correctness the protocol actually
// establishes. O(1): with all n outputs in range and no rank held twice,
// the outputs are a permutation by pigeonhole.
func (p *Protocol) CorrectRanking() bool {
	return p.rankOOR == 0 && p.rankExcess == 0
}

// Roles returns the number of agents per role. O(1).
func (p *Protocol) Roles() (resetting, rankingCount, verifying int) {
	return p.roleCount[RoleResetting], p.roleCount[RoleRanking], p.roleCount[RoleVerifying]
}

// AllVerifiers reports whether every agent is in the Verifying role. O(1).
func (p *Protocol) AllVerifiers() bool {
	return p.roleCount[RoleVerifying] == p.n
}

// AnyTop reports whether any verifier's collision detector is in ⊤. O(1).
func (p *Protocol) AnyTop() bool { return p.topCount > 0 }

// InSafeSet reports whether the population is in Lemma 6.1's safe set. The
// per-agent clauses — every agent a verifier, a correct ranking, no
// detector in ⊤ — are O(1) gates on the incremental counters: during
// stabilization the poll almost always fails here without touching any
// agent state. Only a configuration that passes them pays for the shared
// generation and message-coherence clauses (safeWalk.safe).
func (p *Protocol) InSafeSet() bool {
	if p.roleCount[RoleVerifying] != p.n || p.rankOOR != 0 || p.rankExcess != 0 || p.topCount > 0 {
		return false
	}
	return p.walk.safe(p.dyn.vp.Detect, &p.genCount, &p.probCount, p.ptrs)
}

// safeWalk is the reusable scratch of the Lemma 6.1 predicate: the detect
// coherence buffers and one generation's (rank, detection state) lists.
// Each form of the protocol owns one, so repeated polls do not allocate.
type safeWalk struct {
	coh    *detect.CohScratch
	ranks  []int32
	states []*detect.State
}

// safe decides the clauses of Lemma 6.1's safe set that both forms of the
// protocol share, over a set of verifiers that already passed the per-agent
// clauses (each form checks those its own way). genCount and probCount give,
// per generation (mod 6), the verifiers present and those on probation.
//
// The generations present must be one value, or two adjacent values
// {g, g+1} with every generation-g (behind) agent off probation. Then,
// standing in for condition (b)'s reachability clause, each generation's
// message system must be coherent (detect.Coherent): every circulating
// message has one holder and matches its governor's observation, which
// together with the correct ranking implies no ⊤ can ever be raised again.
// Cross-generation relations are irrelevant: agents of different
// generations never run DetectCollision_r together, and adopting the
// successor generation rebuilds the detection state from scratch.
func (w *safeWalk) safe(dp *detect.Params, genCount, probCount *[verify.Generations]int, set []*Agent) bool {
	present, behindOff := 0, false
	for g, c := range genCount {
		if c == 0 {
			continue
		}
		present++
		if genCount[(g+1)%verify.Generations] > 0 && probCount[g] == 0 {
			behindOff = true
		}
	}
	if present == 0 || present > 2 || present == 2 && !behindOff {
		return false
	}
	if w.coh == nil {
		w.coh = detect.NewCohScratch()
	}
	for gen := uint8(0); gen < verify.Generations; gen++ {
		if genCount[gen] == 0 {
			continue
		}
		w.ranks, w.states = w.ranks[:0], w.states[:0]
		for _, a := range set {
			if a.SV.Generation%verify.Generations == gen {
				w.ranks = append(w.ranks, a.Rank)
				w.states = append(w.states, a.SV.DC)
			}
		}
		if !detect.Coherent(dp, w.ranks, w.states, w.coh) {
			return false
		}
	}
	return true
}

// Generations returns the set of generation values currently present among
// verifiers (empty when none). O(1) up to building the result slice.
func (p *Protocol) Generations() []uint8 {
	out := make([]uint8, 0, verify.Generations)
	for g := uint8(0); g < verify.Generations; g++ {
		if p.genCount[g] > 0 {
			out = append(out, g)
		}
	}
	return out
}
