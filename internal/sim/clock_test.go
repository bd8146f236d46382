// clock_test.go covers the continuous-time scheduler layer: the TimeKeeper's
// Poisson-clock law (mean holding time 2/n, Gamma batch advance matching k
// single advances in distribution), the next-reaction scheduler's heap
// invariants, uniform jump chain, and correct global rate, plus the
// zero-allocation pins the hotpath annotations promise.

package sim

import (
	"math"
	"testing"

	"sspp/internal/graph"
	"sspp/internal/rng"
)

func TestTimeKeeperAdvanceMoments(t *testing.T) {
	const n = 64
	const draws = 200_000
	tk := NewTimeKeeper(rng.New(11), n)
	if tk.Time() != 0 {
		t.Fatalf("fresh clock at t = %g, want 0", tk.Time())
	}
	for i := 0; i < draws; i++ {
		tk.Advance()
	}
	// After k interactions t ~ Gamma(k)·2/n: mean 2k/n, sd 2√k/n.
	mean := 2 * float64(draws) / n
	sd := 2 * math.Sqrt(float64(draws)) / n
	if got := tk.Time(); math.Abs(got-mean) > 6*sd {
		t.Fatalf("after %d interactions t = %g, want %g ± %g", draws, got, mean, 6*sd)
	}
}

func TestTimeKeeperAdvanceManyMatchesLaw(t *testing.T) {
	// AdvanceMany(k) has the law of k Advance calls: same mean and variance.
	const n, k, trials = 32, 400, 4000
	tk := NewTimeKeeper(rng.New(12), n)
	var sum, sumSq float64
	prev := 0.0
	for i := 0; i < trials; i++ {
		tk.AdvanceMany(k)
		d := tk.Time() - prev
		prev = tk.Time()
		sum += d
		sumSq += d * d
	}
	gotMean := sum / trials
	gotVar := sumSq/trials - gotMean*gotMean
	wantMean := 2 * float64(k) / n // k·(2/n)
	wantVar := float64(k) * (2.0 / n) * (2.0 / n)
	if math.Abs(gotMean-wantMean) > 6*math.Sqrt(wantVar/trials) {
		t.Fatalf("batch advance mean %g, want %g", gotMean, wantMean)
	}
	if math.Abs(gotVar-wantVar) > 0.1*wantVar {
		t.Fatalf("batch advance variance %g, want %g", gotVar, wantVar)
	}
}

func TestTimeKeeperAdvanceManySmallCounts(t *testing.T) {
	tk := NewTimeKeeper(rng.New(13), 8)
	tk.AdvanceMany(0)
	if tk.Time() != 0 {
		t.Fatalf("AdvanceMany(0) moved the clock to %g", tk.Time())
	}
	tk.AdvanceMany(1)
	if tk.Time() <= 0 {
		t.Fatalf("AdvanceMany(1) left the clock at %g", tk.Time())
	}
}

func TestTimeKeeperSetNRescalesRate(t *testing.T) {
	// Doubling n halves the mean holding time; identical draw streams make
	// the ratio exact.
	a := NewTimeKeeper(rng.New(14), 100)
	b := NewTimeKeeper(rng.New(14), 200)
	for i := 0; i < 1000; i++ {
		a.Advance()
		b.Advance()
	}
	if ratio := a.Time() / b.Time(); math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("time ratio at double rate = %g, want 2", ratio)
	}
}

func TestTimeKeeperSetNPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetN(0) did not panic")
		}
	}()
	NewTimeKeeper(rng.New(15), 4).SetN(0)
}

func TestTimeKeeperDeterminism(t *testing.T) {
	a := NewTimeKeeper(rng.New(16), 10)
	b := NewTimeKeeper(rng.New(16), 10)
	for i := 0; i < 500; i++ {
		a.Advance()
		b.AdvanceMany(1)
		if a.Time() != b.Time() {
			t.Fatalf("advance %d: clocks diverge (%g vs %g) on the same stream", i, a.Time(), b.Time())
		}
	}
}

// nrHeapInvariant checks the min-heap: parent keys precede children.
func nrHeapInvariant(t *testing.T, nr *NextReaction) {
	t.Helper()
	for i := range nr.heap {
		if l := 2*i + 1; l < len(nr.heap) && nr.key[nr.heap[i]] > nr.key[nr.heap[l]] {
			t.Fatalf("heap violated at %d: key %g > left child %g", i, nr.key[nr.heap[i]], nr.key[nr.heap[l]])
		}
		if r := 2*i + 2; r < len(nr.heap) && nr.key[nr.heap[i]] > nr.key[nr.heap[r]] {
			t.Fatalf("heap violated at %d: key %g > right child %g", i, nr.key[nr.heap[i]], nr.key[nr.heap[r]])
		}
	}
}

func TestNextReactionDealsMonotoneValidEdges(t *testing.T) {
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	nr := NewNextReaction(g, rng.New(21), 0)
	nrHeapInvariant(t, nr)
	prev := 0.0
	for i := 0; i < 5000; i++ {
		a, b, e := nr.PairEdge(g.N())
		if wa, wb := g.Edge(int(e)); a != wa || b != wb {
			t.Fatalf("interaction %d: pair (%d,%d) does not resolve edge %d = (%d,%d)", i, a, b, e, wa, wb)
		}
		if nr.Time() < prev {
			t.Fatalf("interaction %d: time ran backwards (%g after %g)", i, nr.Time(), prev)
		}
		prev = nr.Time()
	}
	nrHeapInvariant(t, nr)
}

func TestNextReactionJumpChainUniformOverEdges(t *testing.T) {
	g, err := graph.Ring(8) // 16 directed edges
	if err != nil {
		t.Fatal(err)
	}
	nr := NewNextReaction(g, rng.New(22), 0)
	const draws = 80_000
	counts := make([]int, g.M())
	for i := 0; i < draws; i++ {
		_, _, e := nr.PairEdge(g.N())
		counts[e]++
	}
	// Equal-rate clocks make the jump chain uniform over edges: each edge
	// expects draws/M hits, sd √(draws·p(1-p)).
	want := float64(draws) / float64(g.M())
	sd := math.Sqrt(float64(draws) * (1.0 / float64(g.M())) * (1 - 1.0/float64(g.M())))
	for e, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Fatalf("edge %d fired %d times, want %g ± %g", e, c, want, 6*sd)
		}
	}
}

func TestNextReactionGlobalRate(t *testing.T) {
	// Total firing rate is n/2 regardless of M: the mean time per
	// interaction is 2/n, as on the complete topology.
	g, err := graph.Torus2D(36)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 100_000
	nr := NewNextReaction(g, rng.New(23), 0)
	for i := 0; i < draws; i++ {
		nr.Pair(g.N())
	}
	want := 2 * float64(draws) / float64(g.N())
	if got := nr.Time(); math.Abs(got-want) > 0.05*want {
		t.Fatalf("after %d interactions t = %g, want ≈ %g", draws, got, want)
	}
}

func TestNextReactionStartOffset(t *testing.T) {
	g, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	const start = 7.5
	nr := NewNextReaction(g, rng.New(24), start)
	if nr.Time() != start {
		t.Fatalf("fresh scheduler at t = %g, want start %g", nr.Time(), start)
	}
	nr.Pair(g.N())
	if nr.Time() <= start {
		t.Fatalf("first firing at t = %g, want after start %g", nr.Time(), start)
	}
	nrHeapInvariant(t, nr)
}

func TestNextReactionDeterminism(t *testing.T) {
	g, err := graph.RandomRegular(20, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := NewNextReaction(g, rng.New(25), 0)
	b := NewNextReaction(g, rng.New(25), 0)
	for i := 0; i < 2000; i++ {
		aa, ab, ae := a.PairEdge(g.N())
		ba, bb, be := b.PairEdge(g.N())
		if aa != ba || ab != bb || ae != be || a.Time() != b.Time() {
			t.Fatalf("interaction %d diverges across identically seeded schedulers", i)
		}
	}
}

// TestClockHotPathsDoNotAllocate pins the zero-allocation contract of the
// //sspp:hotpath annotations on the clock layer.
func TestClockHotPathsDoNotAllocate(t *testing.T) {
	tk := NewTimeKeeper(rng.New(31), 128)
	if avg := testing.AllocsPerRun(200, tk.Advance); avg != 0 {
		t.Errorf("TimeKeeper.Advance allocates %.1f objects per call", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { tk.AdvanceMany(64) }); avg != 0 {
		t.Errorf("TimeKeeper.AdvanceMany allocates %.1f objects per call", avg)
	}
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	nr := NewNextReaction(g, rng.New(32), 0)
	if avg := testing.AllocsPerRun(200, func() { nr.Pair(g.N()) }); avg != 0 {
		t.Errorf("NextReaction.Pair allocates %.1f objects per call", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { nr.PairEdge(g.N()) }); avg != 0 {
		t.Errorf("NextReaction.PairEdge allocates %.1f objects per call", avg)
	}
}

// TestDiscreteClockSegments: the discrete clock reads base + steps/n with
// one segment per population size, so a churn-free history is exactly
// interactions/n however it was chunked, and SetN at an unchanged size
// leaves the reading alone.
func TestDiscreteClockSegments(t *testing.T) {
	c := NewDiscreteClock(10)
	if c.Time() != 0 {
		t.Fatalf("fresh clock at %v", c.Time())
	}
	for _, k := range []uint64{6, 1, 35} {
		c.AdvanceMany(k)
	}
	c.SetN(10)
	if got := c.Time(); got != 42.0/10 {
		t.Fatalf("42 interactions at n=10 read %v, want %v", got, 42.0/10)
	}
	c.SetN(20)
	c.AdvanceMany(10)
	if got, want := c.Time(), 42.0/10+10.0/20; got != want {
		t.Fatalf("after re-rating: %v, want %v", got, want)
	}
}

// TestBindClockOwnership: a scheduler that times its own pairs owns the
// clock while bound, read from the own clock's present on; an untimed one
// leaves the own clock in charge, resumed where the timed one stopped; and
// a Recorder is a time source only when what it wraps is.
func TestBindClockOwnership(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	own := NewDiscreteClock(8)
	own.AdvanceMany(16)
	if c := BindClock(own, NewRecorder(rng.New(1))); c != Clock(own) {
		t.Fatalf("a recorder around a uniform stream took the clock over: %T", c)
	}

	// A next-reaction schedule started at the own clock's time reads its
	// own time exactly, through a recorder too.
	nr := NewNextReaction(g, rng.New(2), own.Time())
	rec := NewRecorder(NewRecorder(nr))
	c := BindClock(own, rec)
	for i := 0; i < 50; i++ {
		rec.Pair(8)
	}
	if c.Time() != nr.Time() || c.Time() <= 2 {
		t.Fatalf("bound clock reads %v, next-reaction schedule %v", c.Time(), nr.Time())
	}
	c.AdvanceMany(50) // the scheduler times itself: no double count
	if c.Time() != nr.Time() {
		t.Fatalf("AdvanceMany moved a scheduler-owned clock to %v", c.Time())
	}

	// A replay of that timed recording restarts at its own zero; bound at
	// the present, its timeline continues the system's.
	end := nr.Time()
	replay := rec.Recording().Replay()
	c = BindClock(c, replay)
	if c.Time() != end {
		t.Fatalf("replay bound at %v reads %v", end, c.Time())
	}
	replay.Pair(8)
	if c.Time() <= end {
		t.Fatalf("replayed pair left the clock at %v (bound at %v)", c.Time(), end)
	}

	// An untimed scheduler hands time back to the own clock, resumed.
	last := c.Time()
	c = BindClock(c, rng.New(3))
	if c != Clock(own) || c.Time() != last {
		t.Fatalf("own clock %T resumed at %v, timed clock ended at %v", c, c.Time(), last)
	}
	c.AdvanceMany(8)
	if c.Time() != last+1 {
		t.Fatalf("resumed own clock reads %v after 8 interactions at n=8, want %v", c.Time(), last+1)
	}
}
