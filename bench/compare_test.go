package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one = %v %v", q1, q3)
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles of none = %v", q1)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5}, 0.9); p != 4.6 {
		t.Errorf("p90 = %v, want 4.6", p)
	}
	if s := spread([]float64{0, 0, 0}); !math.IsInf(s, 1) {
		t.Errorf("spread around a zero median = %v", s)
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "build", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "run", Start: 30, End: 70}, // overlaps build by 10
		{Trace: 1, ID: 4, Parent: 3, Name: "poll", Start: 50, End: 60},
		{Trace: 1, ID: 5, Parent: 1, Name: "late", Start: 95, End: 120}, // clipped to the parent
	}
	want := map[string]float64{"op": 35e-6, "build": 30e-6, "run": 30e-6, "poll": 10e-6, "late": 25e-6}
	for _, st := range selfTimes(spans) {
		if math.Abs(st.MS-want[st.Name]) > 1e-12 || st.Count != 1 {
			t.Errorf("%s: %v ms over %d spans, want %v", st.Name, st.MS, st.Count, want[st.Name])
		}
	}
	var tr *tracer
	if s := tr.begin(1, 0, "x"); s.ID != 0 || tr.newTrace() != 0 {
		t.Errorf("a nil tracer recorded %+v", s)
	}
	tr.end(span{})
	tr.aggregate(aggSpan{})
}

func writeRecords(t *testing.T, recs []runMetrics) string {
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runsOf builds ten seeded t1-agent runs with metric values from f(seed).
func runsOf(f func(seed uint64) map[string]float64) []runMetrics {
	var out []runMetrics
	for s := uint64(1); s <= 10; s++ {
		out = append(out, runMetrics{Workload: "t1-agent", Seed: s, Metrics: f(s)})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	jitter := func(s uint64) float64 { return 1 + 0.002*float64(s%5) }
	base := runsOf(func(s uint64) map[string]float64 {
		return map[string]float64{
			"op_ms.mean":            100 * jitter(s),
			"peak_rss_mb":           100 * jitter(s),
			"setup_s":               float64(s), // a spread far over its bound
			"core.calls.rank":       float64(1000 + s),
			"serve.computed":        16,
			"detect.interact_ns":    100 * jitter(s),
			"core.interact_ns.rank": 100 * jitter(s),
		}
	})
	head := runsOf(func(s uint64) map[string]float64 {
		return map[string]float64{
			"op_ms.mean":            80 * jitter(s),  // better
			"peak_rss_mb":           130 * jitter(s), // worse than its 15 % bound
			"setup_s":               float64(s),
			"core.calls.rank":       float64(1000 + s + s%2), // work changed
			"serve.computed":        16,
			"detect.interact_ns":    150 * jitter(s), // per-layer: worse, significantly
			"core.interact_ns.rank": 100 * jitter(s),
		}
	})
	var out bytes.Buffer
	if err := compareFiles(writeRecords(t, base), writeRecords(t, head), &out); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"op_ms.mean":            "better",
		"peak_rss_mb":           "worse",
		"setup_s":               "unresolved",
		"core.calls.rank":       "work changed",
		"serve.computed":        "unchanged",
		"detect.interact_ns":    "worse",
		"core.interact_ns.rank": "unchanged",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("%d rows, want %d:\n%s", len(lines)-1, len(want), out.String())
	}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		metric := f[1]
		// Fields: workload, metric, base, "[q1," "q3]", head, "[q1," "q3]", ratio, p, verdict...
		if got := strings.Join(f[10:], " "); got != want[metric] {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, got, want[metric], line)
		}
	}
}

func TestCompareEdgeCases(t *testing.T) {
	calls := metricDef{name: "core.calls.rank", unit: "count", better: "lower", exact: true}
	if v := verdict(calls, []seeded{{1, 5}}, []seeded{{2, 6}}); v != "unresolved (no common seed)" {
		t.Errorf("unpaired counts: %q", v)
	}
	rate := metricDef{name: "rate", unit: "1/s", better: "higher", bound: 0.25}
	wide := []seeded{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	higher := []seeded{{1, 100}, {2, 110}, {3, 120}, {4, 130}}
	if v := verdict(rate, wide, higher); v != "better" {
		t.Errorf("every head run better despite the spread: %q", v)
	}
	// A difference of two noisy times can have a negative median; a rise
	// from -2 to +5 is a worsening, and no bound can judge it.
	diff := metricDef{name: "x_ns", unit: "ns", better: "lower"}
	if w := worsening(diff, -2, 5); w != 3.5 {
		t.Errorf("worsening from -2 to 5 = %v, want 3.5", w)
	}
	negative := []seeded{{1, -2.5}, {2, -2}, {3, -1.5}}
	positive := []seeded{{1, 4.5}, {2, 5}, {3, 5.5}}
	if v := verdict(diff, negative, positive); v != "unresolved (base median not positive)" {
		t.Errorf("negative base: %q", v)
	}
	empty := writeRecords(t, nil)
	if err := compareFiles(empty, empty, &bytes.Buffer{}); err == nil {
		t.Error("comparing two empty files succeeded")
	}
	if err := compareFiles(filepath.Join(t.TempDir(), "missing"), empty, &bytes.Buffer{}); err == nil {
		t.Error("comparing a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	os.WriteFile(bad, []byte("{not json\n"), 0o644)
	if _, err := readRecords(bad); err == nil {
		t.Error("a malformed record was read")
	}
	var stdout, stderr bytes.Buffer
	base := writeRecords(t, runsOf(func(s uint64) map[string]float64 { return map[string]float64{"op_ms.mean": 1} }))
	if code := run([]string{"-compare", base, base}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "unchanged") {
		t.Errorf("-compare exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-compare", base, empty}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare with nothing in common exit %d", code)
	}
}
