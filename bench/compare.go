package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"sspp/internal/stats/statcheck"
)

// runMetrics is the part of a record -compare reads.
type runMetrics struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func readRecords(path string) ([]runMetrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runMetrics
	dec := json.NewDecoder(f)
	for {
		var r runMetrics
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(out)+1, err)
		}
		out = append(out, r)
	}
}

// seeded is one run's value of one metric.
type seeded struct {
	seed uint64
	v    float64
}

func valuesOf(runs []runMetrics, workload, metric string) []seeded {
	var out []seeded
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, seeded{r.Seed, v})
		}
	}
	return out
}

func plain(xs []seeded) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

// worsening is how much worse head's median is than base's, as a share of
// base's magnitude (negative when head is better).
func worsening(d metricDef, base, head float64) float64 {
	w := (head - base) / math.Abs(base)
	if d.better == "higher" {
		return -w
	}
	return w
}

// verdict judges one workload × metric:
//   - exact counts are compared seed by seed: any difference is "work
//     changed";
//   - a base median of zero or less has no scale to measure a change
//     against: "unresolved";
//   - a metric whose run-to-run spread exceeds its bound is "unresolved",
//     unless every head run is better than every base run;
//   - "worse" when the head median is worse by more than the bound (for
//     per-layer metrics, which have none: by more than the base spread, at
//     Mann–Whitney p < 0.05);
//   - "better" when it improves by more than the base spread at p < 0.05;
//   - otherwise "unchanged".
func verdict(d metricDef, base, head []seeded) string {
	if d.exact {
		paired := false
		for _, h := range head {
			for _, b := range base {
				if b.seed == h.seed {
					paired = true
					if b.v != h.v {
						return "work changed"
					}
				}
			}
		}
		if !paired {
			return "unresolved (no common seed)"
		}
		return "unchanged"
	}
	b, h := plain(base), plain(head)
	if !(median(b) > 0) {
		return "unresolved (base median not positive)"
	}
	worse := worsening(d, median(b), median(h))
	noise := spread(b)
	if d.bound > 0 && math.Max(noise, spread(h)) > d.bound {
		if allBetter(d, b, h) {
			return "better"
		}
		return "unresolved"
	}
	p := statcheck.MannWhitney(b, h).P
	switch {
	case d.bound > 0 && worse > d.bound:
		return "worse"
	case d.bound == 0 && worse > noise && p < 0.05:
		return "worse"
	case -worse > noise && p < 0.05:
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every head value beats every base value.
func allBetter(d metricDef, base, head []float64) bool {
	bs, hs := sorted(base), sorted(head)
	if d.better == "higher" {
		return hs[0] > bs[len(bs)-1]
	}
	return hs[len(hs)-1] < bs[0]
}

// compareFiles prints, for every workload × metric present in both files,
// both medians and quartiles, the ratio head/base, the Mann–Whitney p over
// the per-run values, and the verdict.
func compareFiles(basePath, headPath string, w io.Writer) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-31s %12s %25s %12s %25s %7s %6s  %s\n",
		"workload", "metric", "base", "[q1, q3]", "head", "[q1, q3]", "ratio", "p", "verdict")
	rows := 0
	for _, wl := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			b, h := valuesOf(base, wl.name, d.name), valuesOf(head, wl.name, d.name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bq1, bq2, bq3 := quartiles(plain(b))
			hq1, hq2, hq3 := quartiles(plain(h))
			fmt.Fprintf(w, "%-13s %-31s %12.5g %25s %12.5g %25s %7.3f %6.3f  %s\n",
				wl.name, d.name, bq2, fmt.Sprintf("[%.5g, %.5g]", bq1, bq3), hq2, fmt.Sprintf("[%.5g, %.5g]", hq1, hq3),
				hq2/bq2, statcheck.MannWhitney(plain(b), plain(h)).P, verdict(d, b, h))
			rows++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload × metric appears in both %s and %s", basePath, headPath)
	}
	return nil
}
