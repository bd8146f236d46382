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

// WatchPooled records every state a cleanup hands to the pools until the
// test ends; the returned function reports whether s was one of them.
func WatchPooled(t *testing.T) (pooled func(s *verify.State) bool) {
	var mu sync.Mutex
	seen := make(map[*verify.State]bool)
	hook := func(s *verify.State) {
		mu.Lock()
		seen[s] = true
		mu.Unlock()
	}
	pooledHook.Store(&hook)
	t.Cleanup(func() { pooledHook.Store(nil) })
	return func(s *verify.State) bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[s]
	}
}
