// Package loadbalance implements the token load-balancing process of
// Berenbrink, Friedetzky, Kaaser, and Kling ("Tight & Simple Load
// Balancing", IPDPS 2019), which the paper's Lemma E.6 couples to the
// message-dispersal mechanism of DetectCollision_r.
//
// Each agent holds a number of identical tokens. When two agents interact
// they rebalance: one ends up with ⌈(x+y)/2⌉ tokens and the other with
// ⌊(x+y)/2⌋. Theorem 1 of that paper shows that from any initial discrepancy
// of O(m), all agents hold loads within a constant of each other after
// O(m·log m) interactions w.h.p.; experiment T6 reproduces this, and the
// coupling argument of Lemma E.6 transfers it to message counts.
package loadbalance

import "sspp/internal/sim"

// Process is a token load-balancing process over n agents.
type Process struct {
	tokens []int64
	total  int64
}

var _ sim.Protocol = (*Process)(nil)

// New returns a process with the given per-agent token counts. The slice is
// copied. It panics on an empty input or negative counts.
func New(tokens []int64) *Process {
	if len(tokens) == 0 {
		panic("loadbalance: New with empty token vector")
	}
	p := &Process{tokens: append([]int64(nil), tokens...)}
	for _, c := range p.tokens {
		if c < 0 {
			panic("loadbalance: negative token count")
		}
		p.total += c
	}
	return p
}

// NewPointMass returns a process over n agents where agent 0 holds all m
// tokens: the worst-case initial discrepancy used by experiment T6.
func NewPointMass(n int, m int64) *Process {
	tokens := make([]int64, n)
	tokens[0] = m
	return New(tokens)
}

// N returns the population size.
func (p *Process) N() int { return len(p.tokens) }

// Interact rebalances the pair: the initiator a receives ⌈(x+y)/2⌉ tokens
// and the responder b receives ⌊(x+y)/2⌋. Which endpoint receives the ceil
// is immaterial for the guarantees because the scheduler orders pairs
// uniformly (this is exactly the coupling used in Lemma E.6).
func (p *Process) Interact(a, b int) {
	sum := p.tokens[a] + p.tokens[b]
	half := sum / 2
	p.tokens[a] = sum - half
	p.tokens[b] = half
}

// Correct reports whether the maximum load discrepancy is at most 1, the
// terminal condition of the balancing process.
func (p *Process) Correct() bool { return p.Discrepancy() <= 1 }

// Discrepancy returns max load − min load over all agents.
func (p *Process) Discrepancy() int64 {
	mn, mx := p.tokens[0], p.tokens[0]
	for _, c := range p.tokens[1:] {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	return mx - mn
}

// Total returns the (conserved) total number of tokens.
func (p *Process) Total() int64 { return p.total }

// Load returns agent i's current token count.
func (p *Process) Load(i int) int64 { return p.tokens[i] }

// CheckConservation returns true when the current loads sum to Total().
// Tests use it as a runtime invariant.
func (p *Process) CheckConservation() bool {
	var s int64
	for _, c := range p.tokens {
		s += c
	}
	return s == p.total
}
