package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sspp"
)

// tinyScale shrinks every input so a smoke run of a workload, or of the
// layer probes, takes milliseconds.
var tinyScale = scale{
	t1N: 16, t1R: 4,
	electN: 300, electR: 4,
	ciwN: 1000, ciwSteps: 20_000,
	setupFor:       time.Millisecond,
	cellSeeds:      2,
	coldPoints:     []sspp.Point{{N: 12, R: 2}, {N: 16, R: 4}},
	warmPoints:     []sspp.Point{{N: 8, R: 2}, {N: 10, R: 4}, {N: 12, R: 2}, {N: 14, R: 6}},
	warmGridPoints: 2,
	warmGrids:      4,
	replaySeeds:    2,
	probeRequests:  2,
	probeRepeats:   2,
	rngCalls:       1000,
	rankingCalls:   1000,
	detectCalls:    100,
	stepChunks:     2,
}

func tinyConfig(t *testing.T, workers int) config {
	return config{seed: 7, workers: workers, sc: tinyScale, tmpDir: t.TempDir()}
}

const smokeRun = 30 * time.Millisecond

func TestSmokeEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			rec, err := measureWorkload(def, tinyConfig(t, 2), smokeRun, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			for _, d := range endToEnd {
				if v := rec.Metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", d.name, v)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	def, _ := workloadByName("sppd-warm")
	rec, err := measureWorkload(def, tinyConfig(t, 2), smokeRun, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("traced run not correct: %v", rec.Notes)
	}
	for _, d := range perLayer {
		v, ok := rec.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s missing or not finite (%v)", d.name, v)
		}
	}
	if len(rec.Spans) == 0 || len(rec.Aggregated) == 0 || len(rec.SelfTimes) == 0 {
		t.Errorf("traced run kept %d spans, %d aggregated spans, %d self times", len(rec.Spans), len(rec.Aggregated), len(rec.SelfTimes))
	}
	if cov := rec.Metrics["run.span_coverage"]; cov < 0.9 || cov > 1 {
		t.Errorf("run.span_coverage = %v, want in [0.9, 1]", cov)
	}
}

func TestEmittedNamesAreDeclared(t *testing.T) {
	def, _ := workloadByName("t1-agent")
	rec, err := measureWorkload(def, tinyConfig(t, 1), smokeRun, true)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if declared[d.name] {
			t.Errorf("%s declared twice", d.name)
		}
		declared[d.name] = true
		if _, ok := rec.Metrics[d.name]; !ok {
			t.Errorf("declared metric %s is never emitted", d.name)
		}
	}
	for name := range rec.Metrics {
		if !declared[name] {
			t.Errorf("emitted metric %s is not declared", name)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if strings.Join(b.Paths, ",") != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
}

func TestUnstabilizedTrialCountsAsFailed(t *testing.T) {
	cfg := tinyConfig(t, 1)
	cfg.sc.t1Budget = 1 // no trial reaches the safe set in one interaction
	def, _ := workloadByName("t1-agent")
	rec, err := measureWorkload(def, cfg, smokeRun, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted || rec.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every trial failed", rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Notes) == 0 || !strings.Contains(rec.Notes[0], "not stabilized") {
		t.Errorf("notes %v do not name the unstabilized trial", rec.Notes)
	}
}

// tamperedWarm corrupts one byte of every prewarm body after set-up, as a
// server that served different bytes warm would look.
type tamperedWarm struct{ *sppdWarm }

func (w tamperedWarm) setup() error {
	if err := w.sppdWarm.setup(); err != nil {
		return err
	}
	for _, b := range w.want {
		b[len(b)/2] ^= 1
	}
	return nil
}

func TestTamperedWarmBodyCountsAsFailed(t *testing.T) {
	cfg := tinyConfig(t, 2)
	st, err := drive(tamperedWarm{&sppdWarm{cfg: cfg}}, cfg, smokeRun, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != st.attempted || st.attempted == 0 {
		t.Fatalf("attempted=%d failed=%d, want every warm request failed", st.attempted, st.failed)
	}
	if !strings.Contains(st.notes[0], "differs from its prewarm body") {
		t.Errorf("notes %v do not name the tampered body", st.notes)
	}
}

// exactMetrics returns the probes' exact counts.
func exactMetrics(t *testing.T, cfg config) map[string]float64 {
	p := runProbes(cfg, nil)
	if p.failed != 0 {
		t.Fatalf("probe checks failed: %v", p.notes)
	}
	out := make(map[string]float64)
	for _, d := range perLayer {
		if d.exact {
			out[d.name] = p.metrics[d.name]
		}
	}
	return out
}

// TestExactCountsRepeat checks that the exact counts repeat across two runs
// and across worker counts: with two workers the serve probe sends its cold
// and warm requests from two concurrent clients to a two-worker server.
func TestExactCountsRepeat(t *testing.T) {
	first := exactMetrics(t, tinyConfig(t, 1))
	for _, workers := range []int{1, 2} {
		again := exactMetrics(t, tinyConfig(t, workers))
		for name, v := range first {
			if again[name] != v {
				t.Errorf("%s: %v, then %v with %d workers", name, v, again[name], workers)
			}
		}
	}
	if first["run.interactions"] == 0 || first["serve.computed"] == 0 {
		t.Errorf("exact counts look empty: %v", first)
	}
}

func TestRunPrintsMetricsAndResultLine(t *testing.T) {
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "t1-agent", "--seed", "3", "--seconds", "0.001", "--trace", "0", "--out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(endToEnd)+1 {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(endToEnd)+1, stdout.String())
	}
	for i, d := range endToEnd {
		if f := strings.Fields(lines[i]); len(f) != 4 || f[0] != "t1-agent" || f[1] != d.name || f[3] != d.unit {
			t.Errorf("line %q, want t1-agent %s <value> %s", lines[i], d.name, d.unit)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", res)
	}
	recs, err := readRecords(out)
	if err != nil || len(recs) != 1 || recs[0].Workload != "t1-agent" || recs[0].Seed != 3 {
		t.Errorf("-out holds %+v, %v", recs, err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "t1-agent", "--trace", "2"},
		{"--workload", "t1-agent", "--seconds", "0"},
		{"--workload", "t1-agent", "extra"},
		{"--no-such-flag"},
		{"-compare", "only-one.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with stdout %q, want exit 2 and no result", args, code, stdout.String())
		}
	}
}

func TestRunAllReportsChildFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runAll("true", nil, &stdout, &stderr); code != 0 {
		t.Errorf("runAll(true) = %d", code)
	}
	if code := runAll("false", nil, &stdout, &stderr); code != 1 {
		t.Errorf("runAll(false) = %d", code)
	}
	if n := strings.Count(stderr.String(), "exit status 1"); n != len(workloads) {
		t.Errorf("%d child failures reported, want %d:\n%s", n, len(workloads), stderr.String())
	}
}
