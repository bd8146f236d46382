// closure_test.go checks the closure half of Lemma 6.1 on the composite
// protocol with the bounded model checker (internal/modelcheck): from every
// configuration the shared safe-set predicate (correct.go) accepts, no
// schedule and no signature draw leads out of the safe set or changes the
// leader or the rank vector. The checker's own machines cover the
// DetectCollision_r and StableVerify_r layers in isolation; this one runs
// the full Protocol 1 transition (dynamics.interactPair) and evaluates the
// predicate in both forms — over a Protocol and over interned keys — so the
// two are also cross-checked on every configuration the search reaches.

package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"sspp/internal/modelcheck"
	"sspp/internal/sim"
	"sspp/internal/verify"
)

// closureConfig is one configuration: every agent's full state.
type closureConfig struct {
	agents []Agent
	key    string
}

// Key returns the canonical fingerprint (the agents' canonical encodings).
func (c *closureConfig) Key() string { return c.key }

// keyCounts is a CountView over interned keys, for the count form of the
// predicate.
type keyCounts struct {
	keys   []uint64
	counts []int64
}

func (v *keyCounts) N() int {
	n := 0
	for _, c := range v.counts {
		n += int(c)
	}
	return n
}

func (v *keyCounts) Occupied() int { return len(v.keys) }

func (v *keyCounts) Count(key uint64) int64 {
	if i := slices.Index(v.keys, key); i >= 0 {
		return v.counts[i]
	}
	return 0
}

func (v *keyCounts) Each(fn func(key uint64, count int64) bool) {
	for i, k := range v.keys {
		if !fn(k, v.counts[i]) {
			return
		}
	}
}

var _ sim.CountView = (*keyCounts)(nil)

// closureMachine enumerates ElectLeader_r executions from the accepted
// start set. One transition is one ordered pair combined with one
// assignment of the (at most two) signature draws the interaction reads.
type closureMachine struct {
	t        *testing.T
	p        *Protocol     // evaluates the agent form of the predicate
	m        *compactModel // evaluates the count form
	dyn      dynamics      // steps configurations, detached from p
	sigSpace int
	initial  []modelcheck.State
	view     keyCounts
	enc      []byte
	fail     string // the first interaction that left the verifying role
}

// newClosureMachine builds the machine for (n, r) with the state space
// shrunk as in modelcheck's detect machine: a signature space of 2, and a
// small probation ceiling and refresh constant.
func newClosureMachine(t *testing.T, n, r int, pmax int32, refresh int) *closureMachine {
	consts := DefaultConstants(n, r)
	consts.PMax = pmax
	consts.DetectRefresh = refresh
	p, err := New(n, r, WithConstants(consts), WithEvents(sim.NewEvents()))
	if err != nil {
		t.Fatal(err)
	}
	p.dyn.vp.Detect.SetSigSpace(2)
	return &closureMachine{t: t, p: p, m: newCompactModel(p), dyn: p.dyn.detached(), sigSpace: 2}
}

// wrap keys a configuration.
func (cm *closureMachine) wrap(agents []Agent) *closureConfig {
	cm.enc = cm.enc[:0]
	for i := range agents {
		cm.enc = appendAgentKey(cm.enc, &agents[i])
		cm.enc = append(cm.enc, '|')
	}
	return &closureConfig{agents: agents, key: string(cm.enc)}
}

// agentSafe is the agent form: the configuration loaded into a Protocol,
// counters rebuilt, then InSafeSet. The loaded agents share the
// configuration's sub-states; the predicate only reads them.
func (cm *closureMachine) agentSafe(cfg *closureConfig) bool {
	copy(cm.p.agents, cfg.agents)
	cm.p.recount()
	return cm.p.InSafeSet()
}

// countSafe is the count form: the configuration interned as a key
// multiset, then the compact model's safe set. The keys are released
// afterwards, so the intern table stays the size of one configuration.
func (cm *closureMachine) countSafe(cfg *closureConfig) bool {
	v := &cm.view
	v.keys, v.counts = v.keys[:0], v.counts[:0]
	for i := range cfg.agents {
		k := cm.m.keyOf(&cfg.agents[i])
		if j := slices.Index(v.keys, k); j >= 0 {
			v.counts[j]++
		} else {
			v.keys = append(v.keys, k)
			v.counts = append(v.counts, 1)
		}
	}
	safe := cm.m.safeSet(v)
	for _, k := range v.keys {
		cm.m.release(k)
	}
	return safe
}

// describe renders each agent's role, generation and probation timer.
func describe(agents []Agent) string {
	var b strings.Builder
	for i := range agents {
		a := &agents[i]
		if a.Role != RoleVerifying {
			fmt.Fprintf(&b, " %d:%s", i, a.Role)
			continue
		}
		fmt.Fprintf(&b, " %d:rank %d gen %d prob %d", i, a.Rank, a.SV.Generation, a.SV.Probation)
	}
	return b.String()
}

// candidates enumerates the start set: identity ranks with clean detection
// states, each agent in generation g or g+1 (mod 6) with probation 0 or
// PMax, for g = 0 and for g = 5 (so the generation wrap is covered). Each
// candidate is checked for agreement between the two forms of the
// predicate; the ones it accepts become the initial configurations.
func (cm *closureMachine) candidates() (total int) {
	n, vp := cm.p.n, cm.dyn.vp
	for _, g := range []uint8{0, verify.Generations - 1} {
		for code := 0; code < 1<<(2*n); code++ {
			agents := make([]Agent, n)
			for i := range agents {
				a := &agents[i]
				a.Role, a.Rank = RoleVerifying, int32(i+1)
				a.SV = verify.InitState(vp, a.Rank)
				a.SV.Generation = (g + uint8(code>>(2*i)&1)) % verify.Generations
				a.SV.Probation = vp.PMax * int32(code>>(2*i+1)&1)
			}
			cfg := cm.wrap(agents)
			agentSafe, countSafe := cm.agentSafe(cfg), cm.countSafe(cfg)
			if agentSafe != countSafe {
				cm.t.Fatalf("candidate%s: agent form %v, count form %v", describe(agents), agentSafe, countSafe)
			}
			if agentSafe {
				cm.initial = append(cm.initial, cfg)
			}
			total++
		}
	}
	return total
}

// Initial returns the accepted start set.
func (cm *closureMachine) Initial() []modelcheck.State { return cm.initial }

// Successors enumerates every (ordered pair, draw assignment) transition.
// Draws are enumerated lazily: an interaction that read k < 2 draws has the
// same successor for every value of the draws it did not read, so only the
// read prefix is branched on.
func (cm *closureMachine) Successors(s modelcheck.State) []modelcheck.State {
	cfg := s.(*closureConfig)
	var out []modelcheck.State
	for a := range cfg.agents {
		for b := range cfg.agents {
			if a == b {
				continue
			}
			for x := 0; x < cm.sigSpace; x++ {
				used := 0
				for y := 0; y < cm.sigSpace; y++ {
					var succ *closureConfig
					succ, used = cm.step(cfg, a, b, [2]int{x, y})
					out = append(out, succ)
					if used < 2 {
						break
					}
				}
				if used < 1 {
					break
				}
			}
		}
	}
	return out
}

// step applies one interaction of the ordered pair (a, b) with scripted
// draws and reports how many draws it read.
func (cm *closureMachine) step(cfg *closureConfig, a, b int, draws [2]int) (*closureConfig, int) {
	agents := make([]Agent, len(cfg.agents))
	copy(agents, cfg.agents)
	agents[a], agents[b] = Agent{}, Agent{}
	cm.dyn.copyAgentInto(&agents[a], &cfg.agents[a])
	cm.dyn.copyAgentInto(&agents[b], &cfg.agents[b])
	used := 0
	sample := func(int) int {
		if used == len(draws) {
			cm.t.Fatalf("an interaction read more than %d draws", len(draws))
		}
		used++
		return draws[used-1]
	}
	cm.dyn.interactPair(&agents[a], &agents[b], sample, sample, 0)
	if cm.fail == "" && (agents[a].Role != RoleVerifying || agents[b].Role != RoleVerifying) {
		cm.fail = fmt.Sprintf("agents %d and %d met in%s", a, b, describe(cfg.agents))
	}
	return cm.wrap(agents), used
}

// bad flags a configuration outside the safe set, one whose rank vector is
// not the identity (so agent 0 is no longer the leader), or one on which
// the two forms of the predicate disagree.
func (cm *closureMachine) bad(s modelcheck.State) bool {
	cfg := s.(*closureConfig)
	agentSafe, countSafe := cm.agentSafe(cfg), cm.countSafe(cfg)
	if agentSafe != countSafe {
		cm.t.Errorf("configuration%s: agent form %v, count form %v", describe(cfg.agents), agentSafe, countSafe)
		return true
	}
	if !agentSafe {
		return true
	}
	for i := range cfg.agents {
		if rankOutputOf(&cfg.agents[i]) != int32(i+1) {
			cm.t.Errorf("rank vector changed:%s", describe(cfg.agents))
			return true
		}
	}
	return false
}

// TestSafeSetClosureExhaustive is Lemma 6.1's closure for ElectLeader_r at
// n ∈ {3, 4}, r ∈ {1, 2} (r ≤ n/2): every configuration reachable from an
// accepted start is safe, keeps its ranks, and gets the same verdict from
// both forms of the predicate. Each size reports whether its reachable
// space closed within the budget (exhaustive) or was cut (bounded).
func TestSafeSetClosureExhaustive(t *testing.T) {
	const (
		pmax      = 2
		refresh   = 3
		maxStates = 60_000
	)
	for _, tc := range []struct{ n, r int }{{3, 1}, {4, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("n=%d/r=%d", tc.n, tc.r), func(t *testing.T) {
			start := time.Now()
			cm := newClosureMachine(t, tc.n, tc.r, pmax, refresh)
			total := cm.candidates()
			if len(cm.initial) == 0 {
				t.Fatalf("predicate accepted none of %d candidates", total)
			}
			rep := modelcheck.Explore(cm, cm.bad, true, modelcheck.Options{MaxStates: maxStates})
			if rep.Violations != 0 {
				ev := cm.p.Events()
				t.Fatalf("safe set not closed at depth %d: %+v; first exit from the verifying role: %q; "+
					"the search saw %d verify hard resets and %d ⊤",
					rep.FirstViolationDepth, rep, cm.fail, ev.Count(verify.EventHardReset), ev.Count(verify.EventTop))
			}
			mode := "exhaustive"
			if rep.Truncated {
				mode = "bounded"
			}
			t.Logf("%s: %d of %d candidates accepted, %d configurations explored to depth %d in %v",
				mode, len(cm.initial), total, rep.Explored, rep.MaxDepth, time.Since(start).Round(time.Millisecond))
		})
	}
}
