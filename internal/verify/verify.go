// Package verify implements StableVerify_r (Section 5, Protocol 2), the
// wrapper that turns DetectCollision_r's error reports into either a soft
// reset (re-initialize only the collision-detection state) or a hard reset
// (TriggerReset, destroying the whole configuration), following the
// probation mechanism of §3.2:
//
//   - Agents count down a probation timer (P_max = c_prob·(n/r)·log n).
//   - A ⊤ raised while the timer is zero means a long error-free period
//     preceded it; since genuine rank collisions are detected quickly
//     w.h.p., the error is attributed to a badly initialized message system
//     and only the detection layer is reset (generation++ mod 6, fresh
//     q0,DC, timer re-armed).
//   - A ⊤ raised while the timer is positive is treated as evidence of a
//     genuine collision (or of an inconsistency that survived a previous
//     soft reset), so a full reset is triggered.
//   - Soft resets spread as an epidemic: an agent one generation behind a
//     partner, with its own timer at zero, adopts the successor generation
//     and soft-resets itself; any other generation difference forces a hard
//     reset. Counting generations modulo 6 suffices (Lemma 6.1).
package verify

import (
	"math"

	"sspp/internal/coin"
	"sspp/internal/detect"
	"sspp/internal/sim"
)

// Generations is the size of the generation ring ℤ₆.
const Generations = 6

// Params holds the StableVerify_r configuration.
type Params struct {
	// PMax is the probation-timer ceiling (c_prob·(n/r)·log n).
	PMax int32
	// Detect is the DetectCollision_r configuration.
	Detect *detect.Params
	// HardOnly disables the soft-reset mechanism: every ⊤ triggers a full
	// reset, as a protocol without §3.2 would do. This is the ablation knob
	// of experiment A1 — with it set, message-layer faults destroy correct
	// rankings.
	HardOnly bool
}

// NewParams builds StableVerify_r parameters for population size n and
// trade-off parameter r with default constants.
func NewParams(n, r int) Params {
	return Params{PMax: DefaultPMax(n, r), Detect: detect.NewParams(n, r)}
}

// DefaultPMax returns the default probation ceiling c_prob·(n/r)·log n. The
// constant is chosen so that detection of a genuine collision (Lemma E.1(b))
// comfortably precedes probation expiry at simulation scales.
func DefaultPMax(n, r int) int32 {
	if r < 1 {
		r = 1
	}
	v := 24 * float64(n) / float64(r) * math.Log(float64(n)+1)
	if v < 8 {
		v = 8
	}
	return int32(math.Ceil(v))
}

// Action is a role transition StableVerify_r requests from its caller.
type Action uint8

const (
	// ActNone requests nothing.
	ActNone Action = iota
	// ActHardReset requests TriggerReset on the agent (Protocol 5).
	ActHardReset
)

// State is the per-agent local state of StableVerify_r (the qSV component of
// ElectLeader_r): the generation counter, the probation timer and the
// embedded DetectCollision_r state.
type State struct {
	// Generation is the soft-reset generation in ℤ₆.
	Generation uint8
	// Probation is the remaining probation timer.
	Probation int32
	// DC is the DetectCollision_r sub-state.
	DC *detect.State
}

// InitState returns q0,SV for an agent of the given rank: generation 0, a
// full probation timer (a freshly started verifier is on probation, so early
// errors cause a safe full reset, §3.2), and a clean q0,DC.
func InitState(p Params, rank int32) *State {
	return ReinitInto(p, rank, nil)
}

// ReinitInto resets s to q0,SV for rank, reusing the embedded detection
// buffers; a nil s allocates fresh (InitState). Role-transition hot paths use
// this to recycle the O(g²) detection state instead of re-allocating it. A
// fresh state and its detection state share one allocation.
func ReinitInto(p Params, rank int32, s *State) *State {
	if s == nil {
		fresh := new(struct {
			sv State
			dc detect.State
		})
		s, fresh.sv.DC = &fresh.sv, &fresh.dc
	}
	s.Generation = 0
	s.Probation = p.PMax
	s.DC = detect.ReinitInto(p.Detect, rank, s.DC)
	return s
}

// softReset re-initializes only the collision-detection layer: the agent
// joins generation gen, re-arms its probation timer, and rebuilds q0,DC from
// its (unchanged) rank, reusing the detection buffers in place.
func (s *State) softReset(p Params, rank int32, gen uint8) {
	s.Generation = gen % Generations
	s.Probation = p.PMax
	s.DC = detect.ReinitInto(p.Detect, rank, s.DC)
}

// Interact applies StableVerify_r (Protocol 2) to the ordered pair of
// verifiers with the given read-only ranks. Samplers provide signature
// randomness for the embedded DetectCollision_r. Events (optional) count
// sim.EvTop, sim.EvSoftReset and sim.EvVerifyHardReset. The returned actions
// tell the caller which agents must undergo a full reset.
func Interact(
	p Params,
	uRank int32, u *State,
	vRank int32, v *State,
	su, sv coin.Sampler,
	sc *detect.Scratch,
	ev *sim.Events,
) (uAct, vAct Action) {
	// Lines 1–2: probation timers tick down on every interaction.
	if u.Probation > 0 {
		u.Probation--
	}
	if v.Probation > 0 {
		v.Probation--
	}

	// Lines 3–9: same-generation verifiers run collision detection and
	// handle any ⊤ it produces; the interaction ends here either way.
	if u.Generation == v.Generation {
		detect.Interact(p.Detect, uRank, u.DC, vRank, v.DC, su, sv, sc)
		uAct = handleTop(p, uRank, u, ev)
		vAct = handleTop(p, vRank, v, ev)
		return uAct, vAct
	}

	// Lines 10–12: soft reset via epidemic — an off-probation agent exactly
	// one generation behind adopts the successor generation.
	if u.Probation == 0 && (u.Generation+1)%Generations == v.Generation {
		u.softReset(p, uRank, v.Generation)
		ev.Inc(sim.EvSoftReset)
		return ActNone, ActNone
	}
	if v.Probation == 0 && (v.Generation+1)%Generations == u.Generation {
		v.softReset(p, vRank, u.Generation)
		ev.Inc(sim.EvSoftReset)
		return ActNone, ActNone
	}

	// Line 13: generations differ but no soft reset is permissible.
	ev.Inc(sim.EvVerifyHardReset)
	return ActHardReset, ActNone
}

// handleTop implements lines 5–8 for one endpoint: an agent in ⊤ soft-resets
// when off probation and requests a hard reset otherwise (always hard in the
// HardOnly ablation).
func handleTop(p Params, rank int32, s *State, ev *sim.Events) Action {
	if s.DC == nil || !s.DC.Err {
		return ActNone
	}
	ev.Inc(sim.EvTop)
	if s.Probation == 0 && !p.HardOnly {
		s.softReset(p, rank, s.Generation+1)
		ev.Inc(sim.EvSoftReset)
		return ActNone
	}
	ev.Inc(sim.EvVerifyHardReset)
	return ActHardReset
}
