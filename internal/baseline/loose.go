// loose.go implements a loosely-stabilizing leader election in the style of
// Sudo, Nakamura, Yamauchi, Ooshita, Kakugawa, Masuzawa (TCS 2012) and its
// successors (related work, §2): from any configuration a unique leader
// emerges within O(τ + n·log n)-ish interactions, and is then *held* for a
// long but finite time governed by the timeout parameter τ, rather than
// forever. Experiment T13 reproduces the convergence-vs-holding-time
// trade-off that distinguishes loose stabilization from the paper's strict
// self-stabilization.

package baseline

import (
	"fmt"
	"math"

	"sspp/internal/adversary"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// LooseLE is a timeout-based loosely-stabilizing leader election.
//
// Every agent carries a countdown timer. Leaders re-arm their own timer to τ
// on every interaction; timers propagate by a max-epidemic and decrement at
// every interaction. An agent whose timer reaches zero assumes leadership is
// lost and promotes itself; two leaders meeting demote the responder. The
// key packs (leader, timer), so the species form occupies at most 2(τ+1)
// states no matter how large the population.
type LooseLE struct {
	keyed
	tau int32
}

// LooseLE is deliberately NOT a SafeSetter: loose stabilization holds the
// leader only for a finite time, so there is no configuration set that is
// correct forever — the engine measures it at the output level instead
// (correct output through a confirmation window). Nor does it rank.
var (
	_ sim.Protocol      = (*LooseLE)(nil)
	_ sim.Injectable    = (*LooseLE)(nil)
	_ sim.Churnable     = (*LooseLE)(nil)
	_ sim.StateKeyer    = (*LooseLE)(nil)
	_ sim.LeaderIndexer = (*LooseLE)(nil)
	_ sim.Compactable   = (*LooseLE)(nil)
)

// looseKey packs a LooseLE agent state (leader bit, timer) into a key.
func looseKey(leader bool, timer int32) uint64 {
	k := uint64(timer) << 1
	if leader {
		k |= 1
	}
	return k
}

// looseState unpacks a LooseLE key into (leader bit, timer).
func looseState(key uint64) (leader bool, timer int32) { return key&1 == 1, int32(key >> 1) }

// looseRules returns LooseLE's one rule set for timeout τ.
func looseRules(tau int32) *rules {
	random := func(_ int, src *rng.PRNG) uint64 { return looseKey(src.Bool(), src.Int31n(tau+1)) }
	return &rules{
		name:  "LooseLE",
		space: func(int) uint64 { return uint64(tau+1) << 1 },
		react: func(a, b uint64, _ int) (uint64, uint64) {
			la, ta := looseState(a)
			lb, tb := looseState(b)
			// Two leaders collapse (responder demotes), leaders re-arm.
			if la && lb {
				lb = false
			}
			if la {
				ta = tau
			}
			if lb {
				tb = tau
			}
			// Max-epidemic on timers, then both decrement.
			m := max(ta, tb) - 1
			if m < 0 {
				m = 0
			}
			ta, tb = m, m
			// Timeout: a non-leader whose timer died promotes itself.
			if !la && ta == 0 {
				la, ta = true, tau
			}
			if !lb && tb == 0 {
				lb, tb = true, tau
			}
			return looseKey(la, ta), looseKey(lb, tb)
		},
		leader: func(key uint64) bool { return key&1 == 1 },
		// Realizable join classes: "" (a follower with a full timer — the
		// state of an agent that just heard from a leader), no-leader (a
		// dead timer, about to self-promote), two-leaders (a spurious leader
		// claim), and random-garbage.
		join: func(class adversary.Class, n int, _ func() uint64, src *rng.PRNG) (uint64, bool) {
			switch class {
			case "":
				return looseKey(false, tau), true
			case adversary.ClassNoLeader:
				return looseKey(false, 0), true
			case adversary.ClassTwoLeaders:
				return looseKey(true, tau), true
			case adversary.ClassRandomGarbage:
				return random(n, src), true
			}
			return 0, false
		},
		random: random,
	}
}

// NewLooseLE returns a LooseLE over n agents with timeout τ and no initial
// leader (all timers at zero forces an immediate self-promotion burst — the
// adversarial start). τ is clamped into [2, MaxInt32-1]: at τ = 1 every
// timer is 0 after each interaction, so every non-leader that interacts
// promotes itself and a unique leader is never reached; MaxInt32-1 keeps
// the random-state draw's bound τ+1 an int32.
func NewLooseLE(n int, tau int32) *LooseLE {
	tau = min(max(tau, 2), math.MaxInt32-1)
	return &LooseLE{keyed: keyed{keys: make([]uint32, n), rules: looseRules(tau)}, tau: tau}
}

// Tau returns the timeout parameter.
func (l *LooseLE) Tau() int32 { return l.tau }

// Inject rewrites the LooseLE configuration according to the adversary
// class. Realizable classes: no-leader (the canonical all-timers-zero
// adversarial start), two-leaders, random-garbage; the others describe
// rank/role structure LooseLE does not have.
func (l *LooseLE) Inject(class string, src *rng.PRNG) error {
	switch adversary.Class(class) {
	case adversary.ClassNoLeader:
		clear(l.keys) // key 0: a non-leader with a dead timer
	case adversary.ClassTwoLeaders:
		for i := range l.keys {
			l.keys[i] = uint32(looseKey(false, l.tau))
		}
		for _, i := range victims(len(l.keys), 2, src) {
			l.keys[i] = uint32(looseKey(true, l.tau))
		}
	case adversary.ClassRandomGarbage:
		l.randomize(src)
	default:
		return fmt.Errorf("baseline: class %q not realizable for LooseLE", class)
	}
	return nil
}
