// mutate.go provides type-valid configuration surgery for building the
// adversarial starting configurations of the recovery analysis (Lemma 6.3).
// Self-stabilization quantifies over all *type-valid* configurations — in
// particular the §5.1 restriction (an agent's own held messages match its
// observations) is part of the state space definition — so all mutators
// below preserve it.

package core

import (
	"sspp/internal/detect"
	"sspp/internal/reset"
	"sspp/internal/verify"
)

// ForceVerifier makes agent i a verifier committed to the given rank (valid
// values are clamped into [1, n]), with a fresh q0,SV built for that rank.
func (p *Protocol) ForceVerifier(i int, rank int32) {
	if rank < 1 {
		rank = 1
	}
	if int(rank) > p.n {
		rank = int32(p.n)
	}
	p.untrack(i)
	a := &p.agents[i]
	p.dyn.releaseAR(a)
	a.Role = RoleVerifying
	a.Rank = rank
	if a.SV != nil { // reuse the agent's own state in place
		a.SV = verify.ReinitInto(p.dyn.vp, rank, a.SV)
	} else {
		a.SV = p.dyn.newSV(rank)
	}
	a.Countdown = 0
	a.Reset = reset.State{}
	p.track(i)
}

// ForceRanker makes agent i a fresh ranker (the Reset routine's output).
func (p *Protocol) ForceRanker(i int) {
	p.untrack(i)
	p.dyn.reinitRanker(&p.agents[i])
	p.track(i)
}

// ForceTriggered makes agent i a freshly triggered resetter (TriggerReset
// without the event-sink side effect, so adversarial setup does not pollute
// experiment counters).
func (p *Protocol) ForceTriggered(i int) {
	p.untrack(i)
	a := &p.agents[i]
	p.dyn.releaseAR(a)
	p.dyn.releaseSV(a)
	a.Role = RoleResetting
	a.Reset = reset.Triggered(p.dyn.consts.Reset)
	a.Rank = 0
	p.track(i)
}

// ForceDormant makes agent i a dormant resetter with the given remaining
// delay (clamped into [1, DMax]).
func (p *Protocol) ForceDormant(i int, delay int32) {
	if delay < 1 {
		delay = 1
	}
	if delay > p.dyn.consts.Reset.DMax {
		delay = p.dyn.consts.Reset.DMax
	}
	p.untrack(i)
	a := &p.agents[i]
	p.dyn.releaseAR(a)
	p.dyn.releaseSV(a)
	a.Role = RoleResetting
	a.Reset = reset.State{Count: 0, Delay: delay}
	a.Rank = 0
	p.track(i)
}

// SetGeneration sets a verifier's generation (mod 6); no-op for other roles.
func (p *Protocol) SetGeneration(i int, gen uint8) {
	a := &p.agents[i]
	if a.Role == RoleVerifying && a.SV != nil {
		p.untrack(i)
		a.SV.Generation = gen % verify.Generations
		p.track(i)
	}
}

// SetProbation sets a verifier's probation timer, clamped into [0, PMax];
// no-op for other roles.
func (p *Protocol) SetProbation(i int, v int32) {
	a := &p.agents[i]
	if a.Role != RoleVerifying || a.SV == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > p.dyn.consts.PMax {
		v = p.dyn.consts.PMax
	}
	p.untrack(i)
	a.SV.Probation = v
	p.track(i)
}

// SetCountdown sets a ranker's countdown, clamped into [0, CountdownMax];
// no-op for other roles.
func (p *Protocol) SetCountdown(i int, v int32) {
	a := &p.agents[i]
	if a.Role != RoleRanking {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > p.dyn.consts.CountdownMax {
		v = p.dyn.consts.CountdownMax
	}
	a.Countdown = v
}

// TamperMessages corrupts one circulating message held by verifier i that is
// governed by a foreign rank, preserving the §5.1 restriction. It reports
// whether a message was corrupted.
func (p *Protocol) TamperMessages(i int) bool {
	a := &p.agents[i]
	if a.Role != RoleVerifying || a.SV == nil || a.SV.DC == nil {
		return false
	}
	return detect.TamperForeignMessage(p.dyn.vp.Detect, a.Rank, a.SV.DC)
}

// DuplicateMessage copies a circulating message from verifier src into
// verifier dst (same rank group required), producing a two-holder message.
// It reports success.
func (p *Protocol) DuplicateMessage(src, dst int) bool {
	as, ad := &p.agents[src], &p.agents[dst]
	if as.Role != RoleVerifying || ad.Role != RoleVerifying || as.SV == nil || ad.SV == nil {
		return false
	}
	return detect.DuplicateMessageInto(p.dyn.vp.Detect, as.Rank, as.SV.DC, ad.Rank, ad.SV.DC)
}
