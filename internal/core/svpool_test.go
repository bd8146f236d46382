// svpool_test.go checks that large verifier states recycled from one
// Protocol into the next leave no trace in any result, and that a state
// stays out of the pools while anything can still reach its agent.

package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sspp"
	"sspp/internal/core"
	"sspp/internal/sim"
	"sspp/internal/verify"
)

// reuseTrial is what a t1 trial leaves behind: its Result and events, the
// rank outputs, and every agent's detection-state key and agent key.
type reuseTrial struct {
	res    sspp.Result
	events sim.Events
	ranks  []int32
	keys   [][]byte
	svs    []*verify.State // each agent's verifier state
}

// runReuseTrial runs a clean ElectLeader_r instance to the safe set.
func runReuseTrial(t *testing.T, n, r int, seed uint64) (*core.Protocol, reuseTrial) {
	t.Helper()
	ev := sim.NewEvents()
	p := mustNew(t, n, r, core.WithSeed(seed), core.WithEvents(ev))
	res := runToSafeSet(t, p, seed, stabilizationBound(n, r))
	if !res.Stabilized {
		t.Fatalf("(n, r) = (%d, %d) seed %d: no safe set within %d interactions", n, r, seed, res.Interactions)
	}
	tr := reuseTrial{res: res, events: *ev}
	for i := range n {
		sv := p.Agent(i).SV
		tr.ranks = append(tr.ranks, p.RankOutput(i))
		tr.keys = append(tr.keys, p.AgentKey(i, sv.DC.AppendKey(nil)))
		tr.svs = append(tr.svs, sv)
	}
	return p, tr
}

// handOvers reads how often each state has been handed to the pools.
func handOvers(handed func(*verify.State) int, states []*verify.State) []int {
	counts := make([]int, len(states))
	for i, s := range states {
		counts[i] = handed(s)
	}
	return counts
}

// awaitPooled collects garbage until every state of want has been handed
// to the pools more often than before says. before must be read while the
// states' owner is still reachable: a state the owner took from the pools
// was handed over once already, by the cleanup of the Protocol that owned
// it earlier, and that cleanup can run late, while the owner is running.
// Only a count above before shows the owner's own hand-over. It stops
// collecting once the first state is handed over: one cleanup hands all
// of a Protocol's states, so the rest follow without another collection.
// sync.Pool drops what it holds only on the second collection after the
// hand-over, so the states stay in the pools until a caller that allocates
// little before its next Get takes them.
func awaitPooled(t *testing.T, handed func(*verify.State) int, want []*verify.State, before []int) {
	t.Helper()
	collect := true
	for try := 0; try < 1000; try++ {
		waiting := 0
		for i, s := range want {
			if handed(s) == before[i] {
				waiting++
			}
		}
		if waiting == 0 {
			return
		}
		collect = collect && waiting == len(want)
		if collect {
			runtime.GC()
		}
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
	}
	t.Fatalf("%d verifier states were never handed to the pools", len(want))
}

// emptyPools collects garbage twice: sync.Pool drops what it held across
// two collections, so no earlier state is left in any pool.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestVerifierStateReuse runs a t1 trial, drops it and waits until its
// verifier states are pooled, then runs a second trial on them. The second
// trial must take pooled states, and its Result, rank outputs and every
// agent's keys must equal the same trial run with empty pools. (250, 64)
// has groups of 63 and 62, so two pools fill and drain at once.
func TestVerifierStateReuse(t *testing.T) {
	handed := core.WatchPooled(t)
	for _, c := range []struct{ n, r int }{{256, 64}, {250, 64}} {
		t.Run(fmt.Sprintf("n%d_r%d", c.n, c.r), func(t *testing.T) {
			owned, before := func() ([]*verify.State, []int) {
				p, _ := runReuseTrial(t, c.n, c.r, 1)
				owned := slices.Clone(core.OwnedStates(p))
				before := handOvers(handed, owned)
				runtime.KeepAlive(p)
				return owned, before
			}()
			if len(owned) < c.n {
				t.Fatalf("the first trial owns %d verifier states, want at least n = %d", len(owned), c.n)
			}
			awaitPooled(t, handed, owned, before)
			fromFirst := make(map[*verify.State]bool, len(owned))
			for _, s := range owned {
				fromFirst[s] = true
			}

			p, reused := runReuseTrial(t, c.n, c.r, 2)
			hits := 0
			for _, s := range reused.svs {
				if fromFirst[s] {
					hits++
				}
			}
			if hits == 0 {
				t.Fatal("the second trial took no state of the first from the pools")
			}
			emptyPools()
			pFresh, fresh := runReuseTrial(t, c.n, c.r, 2)
			for _, s := range fresh.svs {
				if fromFirst[s] {
					t.Fatal("the trial run on emptied pools took a state of the first trial")
				}
			}
			runtime.KeepAlive(p)
			runtime.KeepAlive(pFresh)

			if reused.res != fresh.res || reused.events != fresh.events {
				t.Fatalf("%d pooled states: Result %+v events %v, with empty pools %+v %v",
					hits, reused.res, reused.events, fresh.res, fresh.events)
			}
			if !slices.Equal(reused.ranks, fresh.ranks) {
				t.Fatalf("%d pooled states: rank outputs differ from the run with empty pools", hits)
			}
			for i := range reused.keys {
				if !bytes.Equal(reused.keys[i], fresh.keys[i]) {
					t.Fatalf("%d pooled states: agent %d's state differs from the run with empty pools", hits, i)
				}
			}
		})
	}
}

// TestVerifierStateReuseAgentHeld holds an *Agent past its Protocol: while
// it lives, the agent's verifier state must stay out of the pools, and once
// it is dropped the state must reach them.
func TestVerifierStateReuseAgentHeld(t *testing.T) {
	handed := core.WatchPooled(t)
	a, sv, before := func() (*core.Agent, *verify.State, []int) {
		p, _ := runReuseTrial(t, 256, 64, 3)
		sv := p.Agent(0).SV
		return p.Agent(0), sv, handOvers(handed, []*verify.State{sv})
	}()
	for try := 0; try < 5; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if handed(sv) != before[0] {
		t.Fatal("a verifier state was pooled while an *Agent into its array was live")
	}
	if a.SV != sv || a.Role != core.RoleVerifying {
		t.Fatal("the held agent changed")
	}
	runtime.KeepAlive(a)
	awaitPooled(t, handed, []*verify.State{sv}, before)
}
