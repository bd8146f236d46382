// svpool.go lets large verifier states outlive the Protocol that built them.
// A verifier's detection state holds 2g² messages and a 2g²-entry
// observation array (96 KB per agent at g = 64), and the free list svFree
// recycles it only within one Protocol, so every System's first verifiers
// would allocate, zero and page in fresh states. Instead a Protocol takes
// its states from one process-wide pool per group size, and hands them back
// once it can no longer reach them. ReinitInto rewrites every field and row
// of a recycled state, so where a state came from never shows in a result.

package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sspp/internal/verify"
)

// minPooledG is the smallest group size whose verifier states are pooled:
// the first g whose 2g²-message slab (8 bytes a message) is a large object,
// over 32 KiB. Smaller states are cheap to allocate and the runtime's size
// classes already recycle them; pooling them as well only keeps their
// memory resident longer.
const minPooledG = 46

// svPools maps a group size g (int32) to the *sync.Pool of verifier states
// last laid out for that g.
var svPools sync.Map

// svPool returns the pool of verifier states for group size g.
func svPool(g int32) *sync.Pool {
	if p, ok := svPools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := svPools.LoadOrStore(g, new(sync.Pool))
	return p.(*sync.Pool)
}

// pooledHook, when set, sees each state releaseOwned hands to a pool. Only
// tests set it: sync.Pool may drop what it is given, so they cannot see the
// hand-over in the pool itself.
var pooledHook atomic.Pointer[func(*verify.State)]

// svOwned lists the pooled-size verifier states one Protocol took from
// outside its free list. Every such state is referenced only from that
// Protocol's agents and free list, so once the agent array is unreachable
// the states can go back to their pools. As the cleanup's argument it must
// not reach the array, or the array could never be collected.
type svOwned struct {
	states []*verify.State
}

// releaseOwned hands o's states to the pool of the group size they were
// last laid out for. It runs as a cleanup, after the owning agent array has
// been collected.
func releaseOwned(o *svOwned) {
	for _, s := range o.states {
		if s.DC == nil {
			continue
		}
		if g := len(s.DC.Msgs); g >= minPooledG {
			if h := pooledHook.Load(); h != nil {
				(*h)(s)
			}
			svPool(int32(g)).Put(s)
		}
	}
}

// newSV returns a verifier state for rank, reinitialized to q0,SV: a
// recycled one from the free list, else, on a Protocol's dynamics and for a
// pooled group size, one from the pool or a fresh one, recorded so that it
// returns to the pool after the Protocol.
//
// The first recorded state attaches the cleanup that returns them all. It
// is attached to the agent array (home) rather than to the Protocol:
// Agent(i) hands out pointers into the array, and while one lives, the
// states it reaches must stay out of the pools.
func (d *dynamics) newSV(rank int32) *verify.State {
	if s := d.popSV(); s != nil || d.home == nil {
		return verify.ReinitInto(d.vp, rank, s)
	}
	g := d.vp.Detect.Partition().SizeOf(rank)
	if g < minPooledG {
		return verify.ReinitInto(d.vp, rank, nil)
	}
	if d.owned == nil {
		d.owned = &svOwned{}
		runtime.AddCleanup(d.home, releaseOwned, d.owned)
	}
	s, _ := svPool(g).Get().(*verify.State)
	s = verify.ReinitInto(d.vp, rank, s)
	d.owned.states = append(d.owned.states, s)
	return s
}
