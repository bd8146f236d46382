package sim

import (
	"math"
	"testing"
	"testing/quick"

	"sspp/internal/rng"
)

func TestWeightedPairDistinct(t *testing.T) {
	w := NewZipf(rng.New(1), 16, 1.0)
	for i := 0; i < 20000; i++ {
		a, b := w.Pair(16)
		if a == b {
			t.Fatal("identical pair")
		}
		if a < 0 || a >= 16 || b < 0 || b >= 16 {
			t.Fatalf("out of range: (%d,%d)", a, b)
		}
	}
}

func TestWeightedSkew(t *testing.T) {
	const n = 16
	w := NewZipf(rng.New(2), n, 1.0)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		a, b := w.Pair(n)
		counts[a]++
		counts[b]++
	}
	// Agent 0's rate should be roughly n·H_n⁻¹ ≈ 4.7× agent 15's.
	ratio := float64(counts[0]) / float64(counts[n-1])
	if ratio < 3 {
		t.Fatalf("skew too weak: ratio %.2f", ratio)
	}
	// Expected ratio for Zipf s=1 between ranks 1 and 16 is 16 (modulo the
	// distinct-pair redraw); allow a broad band.
	if ratio > 30 {
		t.Fatalf("skew implausibly strong: ratio %.2f", ratio)
	}
}

func TestWeightedUniformWeightsMatchUniform(t *testing.T) {
	const n = 8
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	w := NewWeighted(rng.New(3), weights)
	counts := make([]int, n)
	const draws = 80000
	for i := 0; i < draws; i++ {
		a, _ := w.Pair(n)
		counts[a]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("agent %d count %d too far from uniform %f", i, c, want)
		}
	}
}

func TestWeightedDegenerateWeights(t *testing.T) {
	w := NewWeighted(rng.New(4), []float64{0, 0, 0, -1})
	for i := 0; i < 1000; i++ {
		a, b := w.Pair(4)
		if a == b || a < 0 || a >= 4 || b < 0 || b >= 4 {
			t.Fatal("degenerate weights must fall back to uniform")
		}
	}
}

func TestWeightedDrawInRangeProperty(t *testing.T) {
	f := func(seed uint64, sRaw uint8) bool {
		n := 4 + int(seed%13)
		s := float64(sRaw%30) / 10
		w := NewZipf(rng.New(seed), n, s)
		for i := 0; i < 50; i++ {
			a, b := w.Pair(n)
			if a == b || a < 0 || a >= n || b < 0 || b >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMatchesPRNGPairStream(t *testing.T) {
	const n = 24
	ref := rng.New(7)
	b := NewBatch(rng.New(7), 37) // odd block size: exercises refill offsets
	for i := 0; i < 10_000; i++ {
		ra, rb := ref.Pair(n)
		ba, bb := b.Pair(n)
		if ra != ba || rb != bb {
			t.Fatalf("pair %d: PRNG (%d,%d) vs batch (%d,%d)", i, ra, rb, ba, bb)
		}
	}
}

func TestBatchPopulationChangeDiscardsBlock(t *testing.T) {
	b := NewBatch(rng.New(8), 16)
	b.Pair(10)
	for i := 0; i < 100; i++ {
		a, c := b.Pair(4) // shrink mid-block: must re-draw, stay in range
		if a == c || a < 0 || a >= 4 || c < 0 || c >= 4 {
			t.Fatalf("invalid pair (%d,%d) after population change", a, c)
		}
	}
}

func TestRecorderCapturesAndReplays(t *testing.T) {
	const n = 9
	rec := NewRecorder(rng.New(9))
	var pairs [][2]int
	for i := 0; i < 500; i++ {
		a, b := rec.Pair(n)
		pairs = append(pairs, [2]int{a, b})
	}
	if rec.Recording().Len() != 500 {
		t.Fatalf("recording holds %d pairs", rec.Recording().Len())
	}
	replay := rec.Recording().Replay()
	for i, want := range pairs {
		a, b := replay.Pair(n)
		if a != want[0] || b != want[1] {
			t.Fatalf("replay pair %d = (%d,%d), want (%d,%d)", i, a, b, want[0], want[1])
		}
	}
	// Exhausted: wraps to the start.
	a, b := replay.Pair(n)
	if a != pairs[0][0] || b != pairs[0][1] {
		t.Fatalf("wrap-around dealt (%d,%d), want (%d,%d)", a, b, pairs[0][0], pairs[0][1])
	}
}

func TestReplaySmallerPopulationFoldsPairs(t *testing.T) {
	rec := NewRecorder(rng.New(10))
	for i := 0; i < 64; i++ {
		rec.Pair(32)
	}
	replay := rec.Recording().Replay()
	for i := 0; i < 64; i++ {
		a, b := replay.Pair(5)
		if a == b || a < 0 || a >= 5 || b < 0 || b >= 5 {
			t.Fatalf("folded pair (%d,%d) invalid for n=5", a, b)
		}
	}
}

func TestReplayEmptyRecordingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Recording{}).Replay().Pair(4)
}
