package sspp

import (
	"bytes"
	"strings"
	"testing"
)

// TestBatchDealsUniformSchedule: the batched scheduler is a drop-in for the
// uniform one — identical seed, identical pair sequence.
func TestBatchDealsUniformSchedule(t *testing.T) {
	const n = 48
	uni := NewUniform(9)
	batch := NewBatch(9, 64)
	for i := 0; i < 10_000; i++ {
		ua, ub := uni.Pair(n)
		ba, bb := batch.Pair(n)
		if ua != ba || ub != bb {
			t.Fatalf("pair %d diverges: uniform (%d,%d) vs batch (%d,%d)", i, ua, ub, ba, bb)
		}
	}
}

// TestBatchRunMatchesUniformRun: a full protocol run is identical under
// both schedulers.
func TestBatchRunMatchesUniformRun(t *testing.T) {
	run := func(sched Scheduler) (Result, string) {
		sys, err := New(Config{N: 16, R: 4, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(AdversaryTriggered, 62); err != nil {
			t.Fatal(err)
		}
		return sys.Run(WithScheduler(sched)), sys.Events()
	}
	ru, eu := run(NewUniform(63))
	rb, eb := run(NewBatch(63, 0))
	if ru != rb || eu != eb {
		t.Fatalf("batch diverges from uniform: %+v/%s vs %+v/%s", ru, eu, rb, eb)
	}
}

// TestSchedulersDealValidPairs: every scheduler produces ordered pairs of
// distinct in-range agents.
func TestSchedulersDealValidPairs(t *testing.T) {
	const n = 12
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	scheds := map[string]Scheduler{
		"uniform":  NewUniform(1),
		"batch":    NewBatch(2, 16),
		"zipf":     NewZipf(3, n, 0.8),
		"weighted": NewWeighted(4, weights),
	}
	for name, s := range scheds {
		for i := 0; i < 5000; i++ {
			a, b := s.Pair(n)
			if a < 0 || a >= n || b < 0 || b >= n || a == b {
				t.Fatalf("%s: invalid pair (%d, %d)", name, a, b)
			}
		}
	}
}

// TestRecordReplayReproducesRun: a schedule captured with a Recorder and
// replayed on a fresh identical system reproduces the identical trajectory
// — the reproducible-trace workflow.
func TestRecordReplayReproducesRun(t *testing.T) {
	build := func() *System {
		sys, err := New(Config{N: 16, R: 4, Seed: 65})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(AdversaryTwoLeaders, 66); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	rec := NewRecorder(NewZipf(67, 16, 0.5)) // non-uniform: replay must capture it
	first := build()
	res1 := first.Run(WithScheduler(rec))
	if !res1.Stabilized {
		t.Fatal("recorded run did not stabilize")
	}
	recording := rec.Recording()
	if recording.Len() == 0 || uint64(recording.Len()) != res1.Interactions {
		t.Fatalf("recording holds %d pairs, run executed %d", recording.Len(), res1.Interactions)
	}
	second := build()
	res2 := second.Run(WithScheduler(recording.Replay()))
	if res1 != res2 {
		t.Fatalf("replayed result %+v differs from recorded %+v", res2, res1)
	}
	r1, r2 := first.Ranks(), second.Ranks()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("replayed ranks diverge at agent %d", i)
		}
	}
	if first.Events() != second.Events() {
		t.Fatalf("replayed events diverge:\n%s\n%s", first.Events(), second.Events())
	}
}

// TestReplayWrapsAround: a consumer that outruns the recording cycles back
// to its start instead of failing.
func TestReplayWrapsAround(t *testing.T) {
	rec := NewRecorder(NewUniform(68))
	const n = 8
	for i := 0; i < 5; i++ {
		rec.Pair(n)
	}
	replay := rec.Recording().Replay()
	var first [5][2]int
	for i := 0; i < 5; i++ {
		first[i][0], first[i][1] = replay.Pair(n)
	}
	for i := 0; i < 5; i++ {
		a, b := replay.Pair(n)
		if a != first[i][0] || b != first[i][1] {
			t.Fatalf("wrap-around pair %d = (%d,%d), want (%d,%d)", i, a, b, first[i][0], first[i][1])
		}
	}
}

// TestRecordingEncodeDecodeRoundTrip: a recording archived through the
// versioned wire format and decoded back replays the identical trajectory,
// in pair mode (complete topology) and edge-indexed mode (ring, random
// regular graph) alike — and re-encoding the decoded recording reproduces
// the archive byte-for-byte.
func TestRecordingEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"complete", Config{N: 16, R: 4, Seed: 71}},
		{"ring", Config{Protocol: ProtocolNameRank, N: 16, Seed: 3, Topology: Ring()}},
		{"random-regular", Config{N: 16, R: 4, Seed: 1, Topology: RandomRegular(8)}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			build := func() *System {
				sys, err := New(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			var sched Scheduler = NewUniform(73) // pair mode on the complete topology
			if !c.cfg.Topology.IsComplete() {
				sched = build().Sampler(73) // edge-indexed mode
			}
			rec := NewRecorder(sched)
			first := build()
			res1 := first.Run(WithScheduler(rec))
			if !res1.Stabilized {
				t.Fatal("recorded run did not stabilize")
			}
			var buf bytes.Buffer
			if err := rec.Recording().Encode(&buf); err != nil {
				t.Fatal(err)
			}
			archived := buf.String()
			decoded, err := DecodeRecording(strings.NewReader(archived))
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Len() != rec.Recording().Len() {
				t.Fatalf("decoded %d interactions, recorded %d", decoded.Len(), rec.Recording().Len())
			}
			var again bytes.Buffer
			if err := decoded.Encode(&again); err != nil {
				t.Fatal(err)
			}
			if again.String() != archived {
				t.Fatal("re-encoding the decoded recording changed the archive bytes")
			}
			second := build()
			res2 := second.Run(WithScheduler(decoded.Replay()))
			if res1 != res2 {
				t.Fatalf("archived replay %+v differs from recorded %+v", res2, res1)
			}
			if first.Events() != second.Events() {
				t.Fatalf("archived replay events diverge:\n%s\n%s", first.Events(), second.Events())
			}
		})
	}
}

// TestRecordingFromSafeStartRoundTrips: a run that starts in the safe set
// stops before drawing a pair, so its recording is empty. That recording
// must still encode, decode and replay to the identical result, because
// the replay never asks it for a pair.
func TestRecordingFromSafeStartRoundTrips(t *testing.T) {
	build := func() *System {
		sys, err := New(Config{N: 16, R: 4, Seed: 74})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(AdversaryProbationSkew, 75); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	rec := NewRecorder(NewUniform(76))
	res1 := build().Run(Until(SafeSet), WithScheduler(rec))
	if !res1.Stabilized || res1.Interactions != 0 || rec.Recording().Len() != 0 {
		t.Fatalf("run from a safe start: %+v with %d recorded pairs, want stabilized at once and none recorded",
			res1, rec.Recording().Len())
	}
	var buf bytes.Buffer
	if err := rec.Recording().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	archived := buf.String()
	decoded, err := DecodeRecording(strings.NewReader(archived))
	if err != nil {
		t.Fatalf("decoding the empty recording %q: %v", archived, err)
	}
	if res2 := build().Run(Until(SafeSet), WithScheduler(decoded.Replay())); res1 != res2 {
		t.Fatalf("replayed result %+v differs from recorded %+v", res2, res1)
	}
}

// TestRecordingGoldenWire pins the version-1 wire layout byte-for-byte: the
// golden archives below must keep decoding (and re-encoding to the identical
// bytes) for as long as the engine accepts version 1 — discrete recordings
// still encode as version 1, so the re-encode checks double as a guard that
// the version 2 (timed) extension never perturbs archived discrete bytes.
func TestRecordingGoldenWire(t *testing.T) {
	if RecordingVersion != 2 {
		t.Fatalf("RecordingVersion = %d; the golden archives pin versions 1-2", RecordingVersion)
	}
	golden := map[string]struct {
		wire string
		len  int
	}{
		"complete": {
			wire: `{"version":1,"pairs":[0,1,2,3,1,0]}` + "\n",
			len:  3,
		},
		"ring": {
			wire: `{"version":1,"topology":"ring","n":4,"edge_list":[[0,1],[1,0],[1,2],[2,1],[2,3],[3,2],[3,0],[0,3]],"edges":[0,3,5,2]}` + "\n",
			len:  4,
		},
		"random-regular": {
			wire: `{"version":1,"topology":"random-regular","n":5,"edge_list":[[0,2],[2,0],[1,3],[3,1],[2,4],[4,2],[0,4],[4,0],[1,2],[2,1]],"edges":[8,0,7,4,1]}` + "\n",
			len:  5,
		},
	}
	for name, g := range golden {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			rec, err := DecodeRecording(strings.NewReader(g.wire))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Len() != g.len {
				t.Fatalf("decoded %d interactions, want %d", rec.Len(), g.len)
			}
			var buf bytes.Buffer
			if err := rec.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != g.wire {
				t.Fatalf("re-encoded archive drifted from the golden bytes:\n got %q\nwant %q", buf.String(), g.wire)
			}
			// The decoded schedule deals real pairs.
			replay := rec.Replay()
			for i := 0; i < g.len; i++ {
				a, b := replay.Pair(5)
				if a < 0 || b < 0 || a == b {
					t.Fatalf("golden pair %d invalid: (%d, %d)", i, a, b)
				}
			}
		})
	}
}

// TestDecodeRecordingRejectsBadArchives: unknown versions and internally
// inconsistent payloads fail the decode up front.
func TestDecodeRecordingRejectsBadArchives(t *testing.T) {
	bad := map[string]string{
		"future version": `{"version":3,"pairs":[0,1]}`,
		"timeless v2":    `{"version":2,"pairs":[0,1]}`,
		"mixed modes":    `{"version":1,"topology":"ring","n":4,"edge_list":[[0,1]],"edges":[0],"pairs":[0,1]}`,
		"odd pairs":      `{"version":1,"pairs":[0,1,2]}`,
		"negative pair":  `{"version":1,"pairs":[0,-1]}`,
		"edge index out": `{"version":1,"topology":"ring","n":4,"edge_list":[[0,1],[1,0]],"edges":[2]}`,
		"self-loop edge": `{"version":1,"topology":"ring","n":4,"edge_list":[[1,1]],"edges":[0]}`,
		"not json":       `schedule`,
	}
	for name, wire := range bad {
		if _, err := DecodeRecording(strings.NewReader(wire)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestZipfSkewsContactRates: larger s concentrates interactions on
// low-index agents (sanity of the non-uniform model behind T16).
func TestZipfSkewsContactRates(t *testing.T) {
	const n = 16
	counts := make([]int, n)
	z := NewZipf(69, n, 1.2)
	for i := 0; i < 40_000; i++ {
		a, b := z.Pair(n)
		counts[a]++
		counts[b]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("no skew: agent 0 saw %d, agent %d saw %d", counts[0], n-1, counts[n-1])
	}
}
