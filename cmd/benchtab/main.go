// Command benchtab regenerates the reproduction tables and figures of
// EXPERIMENTS.md (DESIGN.md §5 maps each to the paper statement it
// validates).
//
// Usage:
//
//	benchtab                 # run every experiment (can take tens of minutes)
//	benchtab -quick          # reduced sizes and seeds (a few minutes)
//	benchtab -experiment T7  # a single experiment
//	benchtab -list           # enumerate experiments
//	benchtab -workers 1      # force sequential trials (default: GOMAXPROCS)
//	benchtab -json           # machine-readable output
//	benchtab -compare        # cross-protocol faceoff through the public Ensemble
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"sspp"
	"sspp/internal/experiments"
	"sspp/internal/trials"
)

// schemaVersion identifies the jsonReport layout. Bump on any breaking
// change to jsonReport or experiments.Table. v8: tables dropped
// elapsed_ms, so a report is a pure function of the flags (wall-clock
// performance is measured by bench/ alone).
const schemaVersion = 8

// jsonReport is the top-level -json document.
type jsonReport struct {
	SchemaVersion int    `json:"schema_version"`
	Quick         bool   `json:"quick"`
	Seeds         int    `json:"seeds,omitempty"`
	BaseSeed      uint64 `json:"base_seed"`
	// Workers is the requested worker setting (0 = GOMAXPROCS) and
	// WorkersResolved the resolved pool size (individual tables may use
	// fewer when they have fewer trials). Tables are byte-identical for
	// every value (internal/trials), so the stamp is provenance, not a
	// reproducibility input.
	Workers         int                  `json:"workers"`
	WorkersResolved int                  `json:"workers_resolved"`
	GoMaxProc       int                  `json:"gomaxprocs"`
	Tables          []*experiments.Table `json:"tables"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick    = flag.Bool("quick", false, "reduced sizes and seed counts")
		exp      = flag.String("experiment", "", "run a single experiment by ID (e.g. T7)")
		seeds    = flag.Int("seeds", 0, "override the number of seeds per point")
		list     = flag.Bool("list", false, "list experiments and exit")
		workers  = flag.Int("workers", 0, "trial-engine workers (0 = GOMAXPROCS, 1 = sequential)")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON report instead of text tables")
		baseSeed = flag.Uint64("baseseed", 0, "offset all trial seeds (reproducibility studies)")
		compare  = flag.Bool("compare", false, "run the cross-protocol comparison grid through the public Ensemble")
		topology = flag.String("topology", "", "interaction topology for -compare: complete (default), ring, torus, random-regular=D, erdos-renyi=P")
	)
	flag.Parse()

	if *compare {
		return runCompare(*quick, *seeds, *baseSeed, *workers, *jsonOut, *topology)
	}
	if *topology != "" {
		return fmt.Errorf("-topology applies to the -compare faceoff (the experiment tables fix their own topologies; see T-ring)")
	}

	registry := experiments.All()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	cfg := experiments.Config{Quick: *quick, Seeds: *seeds, BaseSeed: *baseSeed, Workers: *workers}

	ids := experiments.IDs()
	if *exp != "" {
		if registry[*exp] == nil {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		ids = []string{*exp}
	}
	report := jsonReport{
		SchemaVersion:   schemaVersion,
		Quick:           *quick,
		Seeds:           *seeds,
		BaseSeed:        *baseSeed,
		Workers:         *workers,
		WorkersResolved: trials.DefaultWorkers(*workers),
		GoMaxProc:       runtime.GOMAXPROCS(0),
	}
	for _, id := range ids {
		table := registry[id](cfg)
		if *jsonOut {
			report.Tables = append(report.Tables, table)
			continue
		}
		table.Render(os.Stdout)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}

// runCompare crosses every registry protocol over shared parameter points
// and starting classes through the public Ensemble — one engine, every
// protocol — and renders the pivoted comparison (text or CompareResult
// JSON, byte-identical at any worker count). A non-complete -topology runs
// the identical faceoff on that interaction graph (with a correspondingly
// larger budget — sparse topologies mix slower).
func runCompare(quick bool, seeds int, baseSeed uint64, workers int, jsonOut bool, topology string) error {
	if seeds == 0 {
		seeds = 5
		if quick {
			seeds = 3
		}
	}
	top, err := sspp.ParseTopology(topology)
	if err != nil {
		return err
	}
	points := []sspp.Point{{N: 32, R: 8}, {N: 64, R: 16}}
	if quick {
		points = points[:1]
	}
	var protos []string
	for _, info := range sspp.Protocols() {
		protos = append(protos, info.Name)
	}
	grid := sspp.Grid{
		Protocols:   protos,
		Points:      points,
		Adversaries: []sspp.Adversary{"", sspp.AdversaryTwoLeaders},
		Seeds:       seeds,
		BaseSeed:    baseSeed,
	}
	if !top.IsComplete() {
		grid.Topologies = []sspp.Topology{top}
		// Sparse topologies mix far slower than the complete graph the
		// default budgets assume (see experiment T-ring).
		maxN := 0
		for _, pt := range points {
			if pt.N > maxN {
				maxN = pt.N
			}
		}
		grid.MaxInteractions = uint64(1000 * maxN * maxN * maxN)
	}
	ens, err := sspp.NewEnsemble(grid, sspp.Workers(workers))
	if err != nil {
		return err
	}
	cmp := ens.Run().Compare()
	if jsonOut {
		return cmp.WriteJSON(os.Stdout)
	}
	fmt.Printf("cross-protocol faceoff (%d seeds per cell; topology %s; ElectLeader_r uses r; baselines ignore it)\n\n",
		seeds, top.Name())
	fmt.Printf("  %-12s %-4s %-3s %-12s %-10s %-18s %-14s\n",
		"protocol", "n", "r", "start", "recovered", "mean interactions", "parallel time")
	for _, row := range cmp.Rows {
		start := "clean"
		if row.Adversary != "" {
			start = string(row.Adversary)
		}
		for _, cell := range row.Cells {
			mean, pt := "-", "-"
			if cell.Recovered > 0 {
				mean = fmt.Sprintf("%.0f", cell.Interactions.Mean)
				pt = fmt.Sprintf("%.1f", cell.ParallelTime.Mean)
			}
			fmt.Printf("  %-12s %-4d %-3d %-12s %-10s %-18s %-14s\n",
				cell.Protocol, row.Point.N, row.Point.R, start,
				fmt.Sprintf("%d/%d", cell.Recovered, cell.Seeds), mean, pt)
		}
		fmt.Println()
	}
	fmt.Println("  0/n recovered under an adversarial start marks protocols without the")
	fmt.Println("  injectable capability (namerank, fastle) — no recovery guarantee to measure —")
	fmt.Println("  or classes the protocol cannot realize. loosele is measured by the safe-set")
	fmt.Println("  fallback: correct output confirmed for 20·n interactions.")
	return nil
}
