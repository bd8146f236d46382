// counters.go maintains the incremental predicate counters of Protocol.
// Every mutation of an agent's observable summary — its role, rank output,
// generation, probation flag, and ⊤ flag — happens inside Interact or one of
// the Force*/Set* mutators, and each of those paths brackets the mutation
// with untrack/track on the touched agents. The counters therefore stay
// exact at all times, which is what makes Leaders, Correct, CorrectRanking,
// Roles, AllVerifiers, AnyTop and the cheap gates of InSafeSet O(1).

package core

import "sspp/internal/verify"

// untrack removes agent i's current summary from the counters. It must be
// called before any mutation of agent i and paired with a track call after.
func (p *Protocol) untrack(i int) {
	a := &p.agents[i]
	p.roleCount[a.Role]--
	if a.Role == RoleVerifying && a.SV != nil {
		g := a.SV.Generation % verify.Generations
		p.genCount[g]--
		if a.SV.Probation != 0 {
			p.probCount[g]--
		}
		if a.SV.DC != nil && a.SV.DC.Err {
			p.topCount--
		}
	}
	rank := p.RankOutput(i)
	if rank < 1 || int(rank) > p.n {
		p.rankOOR--
		return
	}
	c := p.rankCount[rank-1]
	p.rankCount[rank-1] = c - 1
	if c >= 2 {
		p.rankExcess--
	}
	if rank == 1 {
		p.leaderSum -= i
	}
}

// track adds agent i's current summary to the counters.
func (p *Protocol) track(i int) {
	a := &p.agents[i]
	p.roleCount[a.Role]++
	if a.Role == RoleVerifying && a.SV != nil {
		g := a.SV.Generation % verify.Generations
		p.genCount[g]++
		if a.SV.Probation != 0 {
			p.probCount[g]++
		}
		if a.SV.DC != nil && a.SV.DC.Err {
			p.topCount++
		}
	}
	rank := p.RankOutput(i)
	if rank < 1 || int(rank) > p.n {
		p.rankOOR++
		return
	}
	c := p.rankCount[rank-1]
	p.rankCount[rank-1] = c + 1
	if c >= 1 {
		p.rankExcess++
	}
	if rank == 1 {
		p.leaderSum += i
	}
}

// recount rebuilds every counter from scratch. New uses it once after
// constructing the initial configuration; tests use it to cross-check the
// incremental bookkeeping against the ground truth.
func (p *Protocol) recount() {
	p.roleCount = [3]int{}
	p.genCount = [verify.Generations]int{}
	p.probCount = [verify.Generations]int{}
	p.topCount = 0
	for i := range p.rankCount {
		p.rankCount[i] = 0
	}
	p.rankExcess = 0
	p.rankOOR = 0
	p.leaderSum = 0
	for i := range p.agents {
		p.track(i)
	}
}

// counterSnapshot captures every incremental counter, for the bookkeeping
// cross-check tests.
type counterSnapshot struct {
	roleCount  [3]int
	genCount   [verify.Generations]int
	probCount  [verify.Generations]int
	topCount   int
	rankCount  []int32
	rankExcess int
	rankOOR    int
	leaderSum  int
}

// snapshotCounters returns a deep copy of the current counters.
func (p *Protocol) snapshotCounters() counterSnapshot {
	return counterSnapshot{
		roleCount:  p.roleCount,
		genCount:   p.genCount,
		probCount:  p.probCount,
		topCount:   p.topCount,
		rankCount:  append([]int32(nil), p.rankCount...),
		rankExcess: p.rankExcess,
		rankOOR:    p.rankOOR,
		leaderSum:  p.leaderSum,
	}
}
