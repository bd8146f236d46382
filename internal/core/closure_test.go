// closure_test.go checks the closure half of Lemma 6.1 on the composite
// protocol with the model checker's pairwise machine (internal/modelcheck):
// from every configuration the shared safe-set predicate (correct.go)
// accepts, no schedule and no signature draw leads out of the safe set or
// changes the leader or the rank vector. The same machine checks the
// DetectCollision_r and StableVerify_r layers in isolation; the layer here
// runs the full Protocol 1 transition (dynamics.interactPair) and evaluates
// the predicate in both forms — over a Protocol and over interned keys — so
// the two are also cross-checked on every configuration the search reaches.

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

// closureSigSpace is the signature space of the closure search.
const closureSigSpace = 2

// closureLayer is the ElectLeader_r layer of the pairwise machine: an
// agent is a full Agent, and one interaction is the composite transition.
type closureLayer struct {
	t       *testing.T
	p       *Protocol     // evaluates the agent form of the predicate
	m       *compactModel // evaluates the count form
	dyn     dynamics      // steps configurations, detached from p
	initial [][]Agent
	view    keyCounts
	fail    string // the first interaction that left the verifying role
}

// newClosureLayer builds the layer for (n, r) with the state space
// shrunk as in modelcheck's detect layer: a signature space of 2, and a
// small probation ceiling and refresh constant.
func newClosureLayer(t *testing.T, n, r int, pmax int32, refresh int) *closureLayer {
	consts := DefaultConstants(n, r)
	consts.PMax = pmax
	consts.DetectRefresh = refresh
	p, err := New(n, r, WithConstants(consts), WithEvents(sim.NewEvents()))
	if err != nil {
		t.Fatal(err)
	}
	p.dyn.vp.Detect.SetSigSpace(closureSigSpace)
	return &closureLayer{t: t, p: p, m: newCompactModel(p), dyn: p.dyn.detached()}
}

func (cl *closureLayer) Clone(a Agent) Agent {
	var c Agent
	cl.dyn.copyAgentInto(&c, &a)
	return c
}

func (cl *closureLayer) AppendKey(b []byte, a Agent) []byte { return appendAgentKey(b, &a) }

func (cl *closureLayer) Interact(from, next []Agent, a, b int, sample func(int) int) bool {
	cl.dyn.interactPair(&next[a], &next[b], sample, sample)
	if cl.fail == "" && (next[a].Role != RoleVerifying || next[b].Role != RoleVerifying) {
		cl.fail = fmt.Sprintf("agents %d and %d met in%s", a, b, describe(from))
	}
	return false
}

// agentSafe is the agent form: the configuration loaded into a Protocol,
// counters rebuilt, then InSafeSet. The loaded agents share the
// configuration's sub-states; the predicate only reads them.
func (cl *closureLayer) agentSafe(agents []Agent) bool {
	copy(cl.p.agents, agents)
	cl.p.recount()
	return cl.p.InSafeSet()
}

// countSafe is the count form: the configuration interned as a key
// multiset, then the compact model's safe set. The keys are released
// afterwards, so the intern table stays the size of one configuration.
func (cl *closureLayer) countSafe(agents []Agent) bool {
	v := &cl.view
	v.keys, v.counts = v.keys[:0], v.counts[:0]
	for i := range agents {
		k := cl.m.keyOf(&agents[i])
		if j := slices.Index(v.keys, k); j >= 0 {
			v.counts[j]++
		} else {
			v.keys = append(v.keys, k)
			v.counts = append(v.counts, 1)
		}
	}
	safe := cl.m.safeSet(v)
	for _, k := range v.keys {
		cl.m.release(k)
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
func (cl *closureLayer) candidates() (total int) {
	n, vp := cl.p.n, cl.dyn.vp
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
			agentSafe, countSafe := cl.agentSafe(agents), cl.countSafe(agents)
			if agentSafe != countSafe {
				cl.t.Fatalf("candidate%s: agent form %v, count form %v", describe(agents), agentSafe, countSafe)
			}
			if agentSafe {
				cl.initial = append(cl.initial, agents)
			}
			total++
		}
	}
	return total
}

// bad flags a configuration outside the safe set, one whose rank vector is
// not the identity (so agent 0 is no longer the leader), or one on which
// the two forms of the predicate disagree.
func (cl *closureLayer) bad(s modelcheck.State) bool {
	agents := s.(*modelcheck.Config[Agent]).Agents
	agentSafe, countSafe := cl.agentSafe(agents), cl.countSafe(agents)
	if agentSafe != countSafe {
		cl.t.Errorf("configuration%s: agent form %v, count form %v", describe(agents), agentSafe, countSafe)
		return true
	}
	if !agentSafe {
		return true
	}
	for i := range agents {
		if rankOutputOf(&agents[i]) != int32(i+1) {
			cl.t.Errorf("rank vector changed:%s", describe(agents))
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
			cl := newClosureLayer(t, tc.n, tc.r, pmax, refresh)
			total := cl.candidates()
			if len(cl.initial) == 0 {
				t.Fatalf("predicate accepted none of %d candidates", total)
			}
			mc := modelcheck.NewPairwise[Agent](cl, closureSigSpace, cl.initial...)
			rep := modelcheck.Explore(mc, cl.bad, true, modelcheck.Options{MaxStates: maxStates})
			if rep.Violations != 0 {
				ev := cl.p.Events()
				t.Fatalf("safe set not closed at depth %d: %+v; first exit from the verifying role: %q; "+
					"the search saw %d verify hard resets and %d ⊤",
					rep.FirstViolationDepth, rep, cl.fail, ev.Count(sim.EvVerifyHardReset), ev.Count(sim.EvTop))
			}
			mode := "exhaustive"
			if rep.Truncated {
				mode = "bounded"
			}
			t.Logf("%s: %d of %d candidates accepted, %d configurations explored to depth %d in %v",
				mode, len(cl.initial), total, rep.Explored, rep.MaxDepth, time.Since(start).Round(time.Millisecond))
		})
	}
}
