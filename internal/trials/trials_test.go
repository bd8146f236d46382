package trials

import (
	"runtime"
	"testing"
	"time"

	"sspp/internal/rng"
)

// TestRunOrderAndStreams checks that results come back in trial order and
// that each trial's PRNG stream is the i-th sequential fork of the root —
// independent of the worker count.
func TestRunOrderAndStreams(t *testing.T) {
	const n = 64
	const baseSeed = 42
	want := make([]uint64, n)
	root := rng.New(baseSeed)
	for i := 0; i < n; i++ {
		want[i] = root.Fork().Uint64()
	}
	for _, workers := range []int{1, 2, 0} {
		got := Run(workers, n, baseSeed, func(i int, src *rng.PRNG) uint64 {
			return src.Uint64()
		})
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trial %d drew %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunWorkerIndependence runs trials with deliberately skewed durations
// so completion order differs from trial order, and checks the aggregation
// is unaffected.
func TestRunWorkerIndependence(t *testing.T) {
	const n = 16
	fn := func(i int, src *rng.PRNG) int {
		if i%4 == 0 { // stagger completions
			time.Sleep(time.Millisecond)
		}
		return i * i
	}
	seq := Run(1, n, 7, fn)
	par := Run(8, n, 7, fn)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

// TestRunEmpty checks the degenerate sizes.
func TestRunEmpty(t *testing.T) {
	if got := Run(4, 0, 1, func(int, *rng.PRNG) int { return 1 }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	got := Run(8, 1, 1, func(int, *rng.PRNG) int { return 1 })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("n=1: got %v", got)
	}
}

// TestForkStreamsDeterministic checks that ForkStreams is a pure function of
// the root state.
func TestForkStreamsDeterministic(t *testing.T) {
	a := ForkStreams(rng.New(5), 8)
	b := ForkStreams(rng.New(5), 8)
	for i := range a {
		if a[i].Uint64() != b[i].Uint64() {
			t.Fatalf("stream %d diverged", i)
		}
	}
}

// TestDefaultWorkers checks the worker-count resolution.
func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := DefaultWorkers(3); got != 3 {
		t.Fatalf("DefaultWorkers(3) = %d", got)
	}
}

// TestSplitRoles pins the one seed derivation: the protocol seed is the
// trial stream's first draw, the adversary stream its first fork, the
// scheduler stream its second, and extra roles fork after them in order.
// Derive splits the streams Run hands its trials, and Split leaves the trial
// stream untouched.
func TestSplitRoles(t *testing.T) {
	const base, n = 9, 4
	got := Derive(base, n)
	root := rng.New(base)
	for s := 0; s < n; s++ {
		src := root.Fork()
		before := *src
		st := Split(src)
		if *src != before {
			t.Fatalf("trial %d: Split advanced the trial stream", s)
		}
		if got[s].ProtoSeed != st.ProtoSeed || got[s].Adv != st.Adv || got[s].Sched != st.Sched {
			t.Fatalf("trial %d: Derive disagrees with Split of Run's stream", s)
		}
		if st.ProtoSeed != src.Uint64() {
			t.Fatalf("trial %d: protocol seed is not the first draw", s)
		}
		for role, want := range []rng.PRNG{st.Adv, st.Sched, *st.Fork(), *st.Fork()} {
			if f := *src.Fork(); f != want {
				t.Fatalf("trial %d: role %d is not fork %d of the trial stream", s, role, role+1)
			}
		}
	}
}
