// churn.go gives ElectLeader_r its churn story. The protocol is anonymous —
// no agent identity survives outside the slot index — so an agent leaving
// and a fresh agent arriving is indistinguishable from the departed agent's
// slot being re-initialized: replacement churn is exactly one slot reset
// with fresh randomness. Dynamic-n churn is NOT supported here: the detect
// partition and every constant are anchored at the build-time n, which is
// why the registry adapter declares equal churn bounds (replacement only).

package core

import "sspp/internal/coin"

// ReplaceAgent models an agent leaving slot i and a brand-new agent arriving
// in its place: the slot becomes a fresh ranker (the protocol's canonical
// clean join state, identical to an initial-configuration agent) with a
// newly seeded synthetic coin, as an arriving device would bring its own
// randomness.
func (p *Protocol) ReplaceAgent(i int) {
	p.untrack(i)
	a := &p.agents[i]
	a.Coin = coin.NewState(coin.WidthFor(int(p.dyn.consts.Ranking.IDSpace)), p.src.Uint64())
	if p.synthetic {
		p.samplers[i] = a.Coin.Sample
	}
	p.dyn.reinitRanker(a)
	p.track(i)
}
