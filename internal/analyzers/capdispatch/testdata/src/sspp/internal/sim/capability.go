// Fixture shadow of the real sspp/internal/sim capability surface: the
// interfaces the analyzer polices plus the As* helpers, whose assertions
// are legal because they live in capability.go.
package sim

type Protocol interface {
	N() int
	Interact(a, b int)
}

type Ranker interface {
	RankOutput(i int) int32
}

type LeaderIndexer interface {
	LeaderIndex() (int, bool)
}

type SafeSetter interface {
	InSafeSet() bool
}

type Compactable interface {
	Compact() int
}

func AsRanker(p any) (Ranker, bool) {
	r, ok := p.(Ranker)
	return r, ok
}

func AsLeaderIndexer(p any) (LeaderIndexer, bool) {
	li, ok := p.(LeaderIndexer)
	return li, ok
}

func AsSafeSetter(p any) (SafeSetter, bool) {
	s, ok := p.(SafeSetter)
	return s, ok
}

type Timed interface {
	Time() float64
}

func AsTimed(v any) (Timed, bool) {
	t, ok := v.(Timed)
	return t, ok
}
