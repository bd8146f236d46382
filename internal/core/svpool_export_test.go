package core

import (
	"sync"
	"testing"

	"sspp/internal/verify"
)

// OwnedStates returns the verifier states p took from outside its free
// list, the ones its cleanup hands to the pools.
func OwnedStates(p *Protocol) []*verify.State {
	if p.dyn.owned == nil {
		return nil
	}
	return p.dyn.owned.states
}

// WatchPooled counts every hand-over of a state to the pools until the
// test ends; the returned function reports how often s was handed over.
func WatchPooled(t *testing.T) (handed func(s *verify.State) int) {
	var mu sync.Mutex
	seen := make(map[*verify.State]int)
	hook := func(s *verify.State) {
		mu.Lock()
		seen[s]++
		mu.Unlock()
	}
	pooledHook.Store(&hook)
	t.Cleanup(func() { pooledHook.Store(nil) })
	return func(s *verify.State) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[s]
	}
}
