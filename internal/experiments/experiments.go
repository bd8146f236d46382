// Package experiments implements the reproduction harness: one generator
// per experiment in DESIGN.md §5 (T1–T16, F1–F2, ablations A1–A4), each
// producing a Table
// that cmd/benchtab renders. The paper is a theory paper without empirical
// tables, so each experiment validates a stated theorem or lemma and records
// the expected asymptotic shape next to the measured values; EXPERIMENTS.md
// archives the outcomes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sspp"
	"sspp/internal/rng"
	"sspp/internal/trials"
)

// Config controls experiment sizes and replication.
type Config struct {
	// Quick selects reduced sizes and seed counts (CI-friendly).
	Quick bool
	// Seeds is the number of independent runs per configuration point
	// (default 5, quick 3).
	Seeds int
	// BaseSeed offsets all seeds for reproducibility studies.
	BaseSeed uint64
	// Workers is the trial-engine worker count: 0 (the default) means
	// GOMAXPROCS, 1 forces sequential execution. Tables are byte-identical
	// for every value (internal/trials).
	Workers int
}

// seeds returns the effective number of seeds.
func (c Config) seeds() int {
	if c.Seeds > 0 {
		return c.Seeds
	}
	if c.Quick {
		return 3
	}
	return 5
}

// workers returns the effective trial-engine worker count.
func (c Config) workers() int { return trials.DefaultWorkers(c.Workers) }

// seedTrials fans count independent per-seed trials of one configuration
// point across the trial engine and returns the results in seed order. fn
// must derive all randomness deterministically from its seed index (plus
// cfg.BaseSeed), so tables do not depend on the worker count.
func seedTrials[T any](cfg Config, count int, fn func(s int) T) []T {
	return trials.Run(cfg.workers(), count, cfg.BaseSeed, func(s int, _ *rng.PRNG) T {
		return fn(s)
	})
}

// runCustom runs p on the public engine, System.Run, with the given
// options; an unbuildable system is reported in Result.Err.
func runCustom(p sspp.Protocol, opts ...sspp.RunOption) sspp.Result {
	sys, err := sspp.NewCustom(p)
	if err != nil {
		return sspp.Result{ParallelTime: -1, Err: err}
	}
	return sys.Run(opts...)
}

// seedTimes is seedTrials for the common single-measurement shape: each
// trial yields one value or fails. It returns the successful measurements in
// seed order and the number of failed trials.
func seedTimes(cfg Config, count int, fn func(s int) (float64, bool)) (times []float64, misses int) {
	type outcome struct {
		took float64
		ok   bool
	}
	for _, o := range seedTrials(cfg, count, func(s int) outcome {
		took, ok := fn(s)
		return outcome{took: took, ok: ok}
	}) {
		if o.ok {
			times = append(times, o.took)
		} else {
			misses++
		}
	}
	return times, misses
}

// Table is a rendered experiment result. Its JSON form is what
// cmd/benchtab -json emits per table.
type Table struct {
	// ID is the experiment identifier (T1…T16, F1, F2, A1…A4).
	ID string `json:"id"`
	// Title is a one-line experiment description.
	Title string `json:"title"`
	// Claim cites the paper statement being validated and the expected
	// shape of the measurement.
	Claim string `json:"claim,omitempty"`
	// Header holds the column names.
	Header []string `json:"header"`
	// Rows holds the measurements.
	Rows [][]string `json:"rows"`
	// Notes holds free-form observations appended during the run.
	Notes []string `json:"notes,omitempty"`
}

// Append adds a row; the cell count should match the header.
func (t *Table) Append(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form observation.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Generator produces one experiment table.
type Generator func(Config) *Table

// All returns the registry of experiment generators keyed by ID.
func All() map[string]Generator {
	return map[string]Generator{
		"T1":      T1StabilizeFromReset,
		"F1":      F1TradeoffCurve,
		"F2":      F2ScalingInN,
		"T2":      T2StateComplexity,
		"T3":      T3AssignRanks,
		"T4":      T4FastLeaderElect,
		"T5":      T5Epidemic,
		"T6":      T6LoadBalance,
		"T7":      T7DetectionLatency,
		"T8":      T8Soundness,
		"T9":      T9SoftReset,
		"T10":     T10Recovery,
		"T11":     T11Baselines,
		"T12":     T12SyntheticCoin,
		"T13":     T13LooseLeader,
		"T14":     T14TransientFaults,
		"T15":     T15ObservedStates,
		"T16":     T16SchedulerRobustness,
		"A1":      A1SoftResetAblation,
		"A2":      A2ProbationAblation,
		"A3":      A3RefreshAblation,
		"A4":      A4LoadBalanceAblation,
		"S1":      S1SpeciesBackend,
		"S2":      S2TauLeapClock,
		"S3":      S3ElectLeaderSpecies,
		"S4":      S4ServeCache,
		"T-ring":  TRingTopology,
		"T-churn": TChurnWorkload,
	}
}

// IDs returns all experiment IDs in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(All()))
	for id := range All() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		// F* after T1, numeric within prefix.
		ka, kb := idKey(a), idKey(b)
		return ka < kb
	})
	return ids
}

// idKey orders the experiments for presentation: T1, F1, F2, T2..T16, the
// ablations A1..A4, the scale experiments S1..S3, then the topology and
// churn experiments.
func idKey(id string) int {
	if id == "T-ring" {
		return 700 // topology experiment, after the scale experiments
	}
	if id == "T-churn" {
		return 710 // churn experiment, after the topology experiment
	}
	var n int
	fmt.Sscanf(id[1:], "%d", &n)
	switch id[0] {
	case 'T':
		if n == 1 {
			return 0
		}
		return n * 10
	case 'F':
		return n // F1 -> 1, F2 -> 2 (right after T1)
	case 'A':
		return 500 + n
	case 'S':
		return 600 + n // scale experiments, after the ablations
	}
	return 1000
}

// fmtU renders a uint64 with thousands separators.
func fmtU(v uint64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
		if len(s) > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	return b.String()
}

// fmtF renders a float with the given precision.
func fmtF(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}
