// dynamics.go is the identity-free half of ElectLeader_r: the full Protocol
// 1 pair transition expressed over two bare *Agent values, detached from any
// population array, index, or incremental counter. Protocol (core.go) wraps
// it with agent identities and the predicate counters; the species-backend
// compact model (compact.go) wraps the same dynamics around interned
// canonical states. Keeping exactly one copy of the transition body is what
// makes the exact-mirror equivalence test meaningful: the two backends can
// only diverge in bookkeeping, never in protocol semantics.

package core

import (
	"sspp/internal/coin"
	"sspp/internal/detect"
	"sspp/internal/ranking"
	"sspp/internal/reset"
	"sspp/internal/sim"
	"sspp/internal/verify"
)

// dynamics carries everything a pair transition needs besides the two
// agents: the constants, the verify/detect parameters, the event sink, the
// shared detect scratch, and the free lists recycling the O(g²) per-role
// states across role transitions. home is set only on a Protocol's
// dynamics, to the first agent of its array: its large verifier states come
// from and return to the process-wide pools (svpool.go), and owned lists
// them.
type dynamics struct {
	n      int
	consts Constants
	vp     verify.Params

	events  *sim.Events
	scratch *detect.Scratch

	arFree []*ranking.State
	svFree []*verify.State
	home   *Agent
	owned  *svOwned
}

// detached returns dynamics with d's constants, parameters and event sink
// over its own detect scratch and empty free lists. It is the one place the
// machinery is assembled: New builds it from the resolved options, and a
// species form detaches from its template so that a species run never
// disturbs the template instance's recycling pools.
func (d *dynamics) detached() dynamics {
	return dynamics{n: d.n, consts: d.consts, vp: d.vp, events: d.events, scratch: detect.NewScratch()}
}

// releaseAR returns a's ranker state to the free list.
func (d *dynamics) releaseAR(a *Agent) {
	if a.AR != nil {
		d.arFree = append(d.arFree, a.AR)
		a.AR = nil
	}
}

// releaseSV returns a's verifier state to the free list.
func (d *dynamics) releaseSV(a *Agent) {
	if a.SV != nil {
		d.svFree = append(d.svFree, a.SV)
		a.SV = nil
	}
}

// popAR pops a recycled ranker state, or nil when the free list is empty.
func (d *dynamics) popAR() *ranking.State {
	if n := len(d.arFree); n > 0 {
		s := d.arFree[n-1]
		d.arFree[n-1] = nil
		d.arFree = d.arFree[:n-1]
		return s
	}
	return nil
}

// popSV pops a recycled verifier state, or nil when the free list is empty.
func (d *dynamics) popSV() *verify.State {
	if n := len(d.svFree); n > 0 {
		s := d.svFree[n-1]
		d.svFree[n-1] = nil
		d.svFree = d.svFree[:n-1]
		return s
	}
	return nil
}

// reinitRanker is the Reset routine (Protocol 6): a becomes a fresh ranker
// with a clean qAR and a full countdown. Discarded states are recycled
// through the free lists.
func (d *dynamics) reinitRanker(a *Agent) {
	d.releaseSV(a)
	a.Role = RoleRanking
	a.Reset = reset.State{}
	a.Countdown = d.consts.CountdownMax
	ar := a.AR // reuse the agent's own state in place when it has one
	if ar == nil {
		ar = d.popAR()
	}
	a.AR = ranking.ReinitInto(d.consts.Ranking, ar)
	a.Rank = 0
}

// triggerReset is TriggerReset (Protocol 5): a becomes a triggered resetter,
// discarding all other state.
func (d *dynamics) triggerReset(a *Agent) {
	d.releaseAR(a)
	d.releaseSV(a)
	a.Role = RoleResetting
	a.Reset = reset.Triggered(d.consts.Reset)
	a.Rank = 0
	d.events.Inc(sim.EvHardReset)
}

// becomeVerifier is Protocol 1 lines 7–8: the ranker commits its computed
// rank and enters verification with q0,SV.
func (d *dynamics) becomeVerifier(a *Agent) {
	rank := int32(1)
	if a.AR != nil {
		rank = a.AR.Rank
	}
	if rank < 1 {
		rank = 1
	}
	if int(rank) > d.n {
		rank = int32(d.n)
	}
	d.releaseAR(a)
	a.Role = RoleVerifying
	a.Rank = rank
	a.SV = d.newSV(rank)
	a.Countdown = 0
	d.events.Inc(sim.EvBecameVerifier)
}

// applyResetOutcome applies a PropagateReset outcome to a.
func (d *dynamics) applyResetOutcome(a *Agent, o reset.Outcome) {
	switch o {
	case reset.OutInfected:
		d.releaseAR(a)
		d.releaseSV(a)
		a.Role = RoleResetting
		a.Rank = 0
		d.events.Inc(sim.EvInfected)
	case reset.OutAwaken:
		d.reinitRanker(a)
		d.events.Inc(sim.EvAwaken)
	}
}

// interactPair applies one ElectLeader_r interaction (Protocol 1) to the
// ordered pair (u, v), drawing u's and v's protocol randomness from su and
// sv. It is the complete transition relation: both
// backends route every interaction through this body.
//
//sspp:hotpath
func (d *dynamics) interactPair(u, v *Agent, su, sv coin.Sampler) {
	// Lines 1–2: PropagateReset when the initiator is a resetter.
	if u.Role == RoleResetting {
		uo, vo := reset.Step(d.consts.Reset,
			true, &u.Reset, v.Role == RoleResetting, &v.Reset)
		d.applyResetOutcome(u, uo)
		d.applyResetOutcome(v, vo)
	}

	// Lines 3–5: two rankers execute AssignRanks_r and tick countdowns.
	if u.Role == RoleRanking && v.Role == RoleRanking {
		ranking.Interact(d.consts.Ranking, u.AR, v.AR, su, sv)
		if u.Countdown > 0 {
			u.Countdown--
		}
		if v.Countdown > 0 {
			v.Countdown--
		}
	}

	// Lines 6–8: rankers whose countdown expired, or who meet a verifier,
	// become verifiers — sequentially, so one transition can pull the
	// partner along (the epidemic of Lemma F.1).
	for _, pair := range [2][2]*Agent{{u, v}, {v, u}} {
		ai, aj := pair[0], pair[1]
		if ai.Role == RoleRanking && (ai.Countdown <= 0 || aj.Role == RoleVerifying) {
			d.becomeVerifier(ai)
		}
	}

	// Lines 9–10: two verifiers execute StableVerify_r.
	if u.Role == RoleVerifying && v.Role == RoleVerifying {
		uAct, vAct := verify.Interact(d.vp,
			u.Rank, u.SV, v.Rank, v.SV,
			su, sv, d.scratch, d.events)
		if uAct == verify.ActHardReset {
			d.triggerReset(u)
		}
		if vAct == verify.ActHardReset {
			d.triggerReset(v)
		}
	}
}

// copyAgentInto deep-copies src into dst, reusing dst's per-role state
// buffers (and the free lists) so the compact model's per-interaction
// scratch copies settle into zero allocations. The synthetic coin is copied
// by value; canonical encodings ignore it (see key.go).
func (d *dynamics) copyAgentInto(dst, src *Agent) {
	dst.Role = src.Role
	dst.Reset = src.Reset
	dst.Countdown = src.Countdown
	dst.Rank = src.Rank
	dst.Coin = src.Coin
	if src.AR == nil {
		d.releaseAR(dst)
	} else {
		ar := dst.AR
		if ar == nil {
			ar = d.popAR()
			if ar == nil {
				ar = &ranking.State{}
			}
		}
		ch := ar.Channel
		*ar = *src.AR
		if src.AR.Channel == nil {
			// nil and empty channels are distinct ranking states
			// (channelSum treats nil as "no channel"): preserve nil-ness.
			ar.Channel = nil
		} else {
			ar.Channel = append(ch[:0], src.AR.Channel...)
		}
		dst.AR = ar
	}
	if src.SV == nil {
		d.releaseSV(dst)
	} else {
		sv := dst.SV
		if sv == nil {
			sv = d.popSV()
			if sv == nil {
				sv = &verify.State{}
			}
		}
		dc := sv.DC
		*sv = *src.SV
		if src.SV.DC == nil {
			sv.DC = nil
		} else {
			sv.DC = src.SV.DC.CloneInto(dc)
		}
		dst.SV = sv
	}
}
