package a

import "sspp/internal/sim"

// localCap is not a sim capability: asserting it is fine.
type localCap interface {
	Flush() error
}

func adHoc(p sim.Protocol) int32 {
	if rk, ok := p.(sim.Ranker); ok { // want `capability interface sim\.Ranker outside internal/sim/capability\.go`
		return rk.RankOutput(0)
	}
	return 0
}

func adHocSwitch(p sim.Protocol) bool {
	switch p.(type) {
	case sim.SafeSetter: // want `capability interface sim\.SafeSetter outside internal/sim/capability\.go`
		return true
	case localCap:
		return false
	}
	return false
}

func viaHelper(p sim.Protocol) int32 {
	if rk, ok := sim.AsRanker(p); ok {
		return rk.RankOutput(0)
	}
	return 0
}

func assertLocal(v any) bool {
	_, ok := v.(localCap)
	return ok
}

func allowlisted(p sim.Protocol) bool {
	_, ok := p.(sim.Compactable) //sspp:allow capdispatch -- fixture: documented escape hatch
	return ok
}

func adHocNamed(p sim.Protocol) (int, bool) {
	if li, ok := p.(sim.LeaderIndexer); ok { // want `capability interface sim\.LeaderIndexer outside internal/sim/capability\.go`
		return li.LeaderIndex()
	}
	return 0, false
}

// An anonymous interface with a capability's exact method-name set is the
// same ad-hoc dispatch with the name erased.
func adHocAnonymous(p sim.Protocol) (int, bool) {
	if li, ok := p.(interface{ LeaderIndex() (int, bool) }); ok { // want `anonymous interface assertion has the method set of capability sim\.LeaderIndexer`
		return li.LeaderIndex()
	}
	return 0, false
}

func adHocAnonymousSwitch(p sim.Protocol) bool {
	switch p.(type) {
	case interface{ InSafeSet() bool }: // want `anonymous interface assertion has the method set of capability sim\.SafeSetter`
		return true
	}
	return false
}

// A proper subset of a capability's method set is a narrower probe, not
// capability dispatch: legal.
func subsetProbe(p sim.Protocol) bool {
	_, ok := p.(interface{ CorrectRanking() bool })
	return ok
}

// A superset is not the capability either.
func supersetProbe(p sim.Protocol) bool {
	_, ok := p.(interface {
		LeaderIndex() (int, bool)
		Flush() error
	})
	return ok
}

// A scheduler that times its own pairs is a capability too: the time source
// is chosen by sim.AsTimed, which sees through recorders, and nowhere else.
func adHocTimed(sched any) float64 {
	if td, ok := sched.(sim.Timed); ok { // want `capability interface sim\.Timed outside internal/sim/capability\.go`
		return td.Time()
	}
	return 0
}

func adHocTimedAnonymous(sched any) bool {
	_, ok := sched.(interface{ Time() float64 }) // want `anonymous interface assertion has the method set of capability sim\.Timed`
	return ok
}

func timedViaHelper(sched any) float64 {
	if td, ok := sim.AsTimed(sched); ok {
		return td.Time()
	}
	return 0
}
