package sspp

import (
	"bytes"
	"runtime"
	"testing"

	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/rng"
	"sspp/internal/trials"
)

// ensembleGrid is the acceptance grid: 2 (n, r) points × 2 adversary
// classes.
func ensembleGrid(seeds int) Grid {
	return Grid{
		Points:      []Point{{N: 16, R: 4}, {N: 24, R: 8}},
		Adversaries: []Adversary{AdversaryTriggered, AdversaryRandomGarbage},
		Seeds:       seeds,
		BaseSeed:    11,
	}
}

// legacyMeasure replicates the historical internal/experiments trial
// derivation (pre-Ensemble measureSafeSet) verbatim: stream s is the s-th
// sequential Fork of rng.New(baseSeed); each trial draws protoSeed, forks
// adversary and scheduler streams, and runs the bare core protocol to the
// safe set under the generous Theorem 1.1 budget.
func legacyMeasure(t *testing.T, workers, seeds int, baseSeed uint64, n, r int, class Adversary) (times []float64, failures int) {
	t.Helper()
	sys, err := New(Config{N: n, R: r})
	if err != nil {
		t.Fatal(err)
	}
	budget := sys.DefaultBudget()
	type outcome struct {
		took float64
		ok   bool
	}
	results := trials.Run(workers, seeds, baseSeed, func(s int, src *rng.PRNG) outcome {
		protoSeed := src.Uint64()
		advSrc, schedSrc := src.Fork(), src.Fork()
		p, err := core.New(n, r, core.WithSeed(protoSeed))
		if err != nil {
			return outcome{}
		}
		if err := adversary.Apply(p, adversary.Class(class), advSrc); err != nil {
			return outcome{}
		}
		custom, err := NewCustom(p)
		if err != nil {
			return outcome{}
		}
		res := custom.Run(WithScheduler(schedSrc), MaxInteractions(budget))
		return outcome{took: float64(res.StabilizedAt), ok: res.Stabilized}
	})
	for _, res := range results {
		if res.ok {
			times = append(times, res.took)
		} else {
			failures++
		}
	}
	return times, failures
}

// TestEnsembleReproducesExperimentNumbers pins the acceptance criterion: a
// public Ensemble over a 2-point grid × 2 adversary classes reproduces the
// historical experiment-harness numbers byte-identically, at any worker
// count.
func TestEnsembleReproducesExperimentNumbers(t *testing.T) {
	const seeds = 3
	grid := ensembleGrid(seeds)
	for _, workers := range []int{1, 8} {
		ens, err := NewEnsemble(grid, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res := ens.Run()
		if len(res.Cells) != 4 {
			t.Fatalf("cells = %d, want 4", len(res.Cells))
		}
		for _, pt := range grid.Points {
			for _, class := range grid.Adversaries {
				cell, ok := res.Cell(CellKey{Point: Point{N: pt.N, R: pt.R}, Adversary: class})
				if !ok {
					t.Fatalf("cell (%d, %d, %s) missing", pt.N, pt.R, class)
				}
				wantTimes, wantFails := legacyMeasure(t, 1, seeds, grid.BaseSeed, pt.N, pt.R, class)
				if cell.Failures != wantFails || len(cell.Samples) != len(wantTimes) {
					t.Fatalf("workers=%d cell (%d,%d,%s): %d samples / %d fails, want %d / %d",
						workers, pt.N, pt.R, class, len(cell.Samples), cell.Failures,
						len(wantTimes), wantFails)
				}
				for i := range wantTimes {
					if cell.Samples[i] != wantTimes[i] {
						t.Fatalf("workers=%d cell (%d,%d,%s) sample %d: %v != legacy %v",
							workers, pt.N, pt.R, class, i, cell.Samples[i], wantTimes[i])
					}
				}
			}
		}
	}
}

// TestEnsembleJSONWorkerCountIndependent pins the public determinism
// contract: the same grid and seeds produce byte-identical JSON at
// -workers=1 and -workers=8 (and GOMAXPROCS, whatever it is).
func TestEnsembleJSONWorkerCountIndependent(t *testing.T) {
	grid := ensembleGrid(2)
	render := func(workers int) []byte {
		ens, err := NewEnsemble(grid, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ens.Run().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	for _, workers := range []int{8, runtime.GOMAXPROCS(0)} {
		if par := render(workers); !bytes.Equal(seq, par) {
			t.Fatalf("JSON differs between workers=1 and workers=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				workers, seq, par)
		}
	}
	if !bytes.Contains(seq, []byte(`"schema_version": 1`)) {
		t.Fatalf("schema version missing from JSON:\n%s", seq)
	}
	if bytes.Contains(seq, []byte(`"workers"`)) {
		t.Fatalf("worker count leaked into the deterministic JSON:\n%s", seq)
	}
}

// TestEnsembleCellStatistics: the distributions are self-consistent and in
// the paper's units.
func TestEnsembleCellStatistics(t *testing.T) {
	ens, err := NewEnsemble(Grid{
		Points:      []Point{{N: 16, R: 4}},
		Adversaries: []Adversary{AdversaryTriggered},
		Seeds:       4,
		BaseSeed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := ens.Run()
	cell := res.Cells[0]
	if cell.Recovered != 4 || cell.Failures != 0 {
		t.Fatalf("recovered %d / failed %d, want 4 / 0", cell.Recovered, cell.Failures)
	}
	d := cell.Interactions
	if d.N != 4 || d.Min > d.Median || d.Median > d.Max || d.Mean <= 0 {
		t.Fatalf("inconsistent distribution %+v", d)
	}
	if d.P10 < d.Min || d.P90 > d.Max {
		t.Fatalf("quantiles outside range: %+v", d)
	}
	wantPT := d.Mean / 16
	if diff := cell.ParallelTime.Mean - wantPT; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("parallel time %v, want %v", cell.ParallelTime.Mean, wantPT)
	}
	// Triggered starts awaken without hard resets.
	if cell.HardResets.Max != 0 {
		t.Fatalf("triggered class hard resets = %+v", cell.HardResets)
	}
}

// TestEnsembleCleanDefault: an empty adversary list runs one clean start
// per point, which stabilizes.
func TestEnsembleCleanDefault(t *testing.T) {
	ens, err := NewEnsemble(Grid{Points: []Point{{N: 16, R: 4}}, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := ens.Run()
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if res.Cells[0].Adversary != "" || res.Cells[0].Recovered != 2 {
		t.Fatalf("clean cell = %+v", res.Cells[0])
	}
	if res.Seeds != 2 {
		t.Fatalf("seeds = %d", res.Seeds)
	}
}

// TestEnsembleClockAxis: crossing the Clocks axis stamps every cell with
// its clock, keeps the declaration order (clocks between topologies and
// points), stays byte-identical across worker counts — and, because the
// continuous-exact clock draws holding times from a dedicated stream, its
// cells report the same interaction-count samples as the discrete ones.
func TestEnsembleClockAxis(t *testing.T) {
	base := Grid{
		Points:      []Point{{N: 16, R: 4}, {N: 24, R: 8}},
		Adversaries: []Adversary{AdversaryTriggered},
		Seeds:       2,
		BaseSeed:    11,
	}
	clocked := base
	clocked.Clocks = []string{ClockDiscrete, ClockContinuousExact}

	render := func(g Grid, workers int) (*EnsembleResult, []byte) {
		ens, err := NewEnsemble(g, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res := ens.Run()
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	plainRes, plainJSON := render(base, 1)
	res, seq := render(clocked, 1)
	if _, par := render(clocked, 8); !bytes.Equal(seq, par) {
		t.Fatalf("clocked JSON differs between workers=1 and workers=8:\n%s\n---\n%s", seq, par)
	}

	// Declaration order: clocks vary slower than points within a topology.
	wantClocks := []string{ClockDiscrete, ClockDiscrete, ClockContinuousExact, ClockContinuousExact}
	if len(res.Cells) != len(wantClocks) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(wantClocks))
	}
	for i, c := range res.Cells {
		if c.Clock != wantClocks[i] {
			t.Fatalf("cell %d clock %q, want %q", i, c.Clock, wantClocks[i])
		}
		if c.Point != base.Points[i%2] {
			t.Fatalf("cell %d point %+v, want %+v", i, c.Point, base.Points[i%2])
		}
	}

	// The continuous-exact clock equips the same jump chain with event times:
	// at matched seeds the stabilization interaction counts are identical,
	// clock to clock and to the un-crossed grid.
	for _, pt := range base.Points {
		plain, ok := plainRes.Cell(CellKey{Point: pt, Adversary: AdversaryTriggered})
		if !ok {
			t.Fatalf("plain cell %+v missing", pt)
		}
		for _, clock := range clocked.Clocks {
			cell, ok := res.Cell(CellKey{Clock: clock, Point: pt, Adversary: AdversaryTriggered})
			if !ok {
				t.Fatalf("cell (%s, %+v) missing", clock, pt)
			}
			if len(cell.Samples) != len(plain.Samples) {
				t.Fatalf("clock %s point %+v: %d samples, want %d", clock, pt, len(cell.Samples), len(plain.Samples))
			}
			for i := range plain.Samples {
				if cell.Samples[i] != plain.Samples[i] {
					t.Fatalf("clock %s point %+v sample %d: %v != %v — the clock axis perturbed the jump chain",
						clock, pt, i, cell.Samples[i], plain.Samples[i])
				}
			}
		}
	}

	// The JSON gains the clocks axis; the un-crossed layout stays pre-clock.
	if !bytes.Contains(seq, []byte(`"clocks"`)) || !bytes.Contains(seq, []byte(`"clock": "continuous-exact"`)) {
		t.Fatalf("clock axis missing from JSON:\n%s", seq)
	}
	if bytes.Contains(plainJSON, []byte("clock")) {
		t.Fatalf("un-crossed grid leaks clock fields into JSON:\n%s", plainJSON)
	}

	// The pivot carries the clock stamp through.
	cmp := res.Compare()
	if len(cmp.Clocks) != 2 || cmp.Rows[0].Clock != ClockDiscrete || cmp.Rows[2].Clock != ClockContinuousExact {
		t.Fatalf("compare pivot lost the clock axis: %+v", cmp)
	}
}

// TestEnsembleValidation: bad grids are rejected up front.
func TestEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(Grid{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := NewEnsemble(Grid{Points: []Point{{N: 1, R: 1}}}); err == nil {
		t.Fatal("invalid point accepted")
	}
	if _, err := NewEnsemble(Grid{Points: []Point{{N: 32, R: 17}}}); err == nil {
		t.Fatal("r > n/2 accepted")
	}
	if _, err := NewEnsemble(Grid{
		Points:      []Point{{N: 16, R: 4}},
		Adversaries: []Adversary{"bogus"},
	}); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := NewEnsemble(Grid{Points: []Point{{N: 16, R: 4}}, Seeds: -1}); err == nil {
		t.Fatal("negative seeds accepted")
	}
	if _, err := NewEnsemble(Grid{
		Points: []Point{{N: 16, R: 4}},
		Clocks: []string{"sundial"},
	}); err == nil {
		t.Fatal("unknown clock accepted")
	}
}

// TestEnsembleCellTimeFromClock: a cell's ParallelTime summarizes its
// trials' Result.ParallelTime, the time each trial's own clock read, for
// every owner of time (DESIGN.md §12) and for the recovery shapes. Each
// cell is checked, field for field and bit for bit, against the same trials
// rebuilt outside the Ensemble from the historical per-seed derivation.
// Discrete cells whose population never changes from one instant to the
// next also read exactly StabilizedAt/n, their historical values.
func TestEnsembleCellTimeFromClock(t *testing.T) {
	churn := NewWorkload(JoinLeaveChurn(0, 640, 0.5, 0.5, "", 17))
	for _, tc := range []struct {
		name  string
		cfg   Config // the cell's trial Config, Seed unset
		k     int    // Grid.TransientK
		wl    *Workload
		exact bool // the cell reads summarize(StabilizedAt/n)
	}{
		{name: "discrete-agent", cfg: Config{Protocol: ProtocolCIW, N: 24}, exact: true},
		{name: "discrete-species", cfg: Config{Protocol: ProtocolCIW, N: 24, Backend: BackendSpecies}, exact: true},
		{name: "continuous-agent-timekeeper", cfg: Config{Protocol: ProtocolCIW, N: 32, Clock: ClockContinuousExact}},
		{name: "continuous-species-native", cfg: Config{Protocol: ProtocolCIW, N: 32, Backend: BackendSpecies, Clock: ClockContinuous}},
		{name: "continuous-agent-ring-nextreaction", cfg: Config{Protocol: ProtocolNameRank, N: 16, Topology: Ring(), Clock: ClockContinuous}},
		{name: "discrete-transient", cfg: Config{Protocol: ProtocolCIW, N: 24}, k: 3, exact: true},
		{name: "replacement-churn-discrete", cfg: Config{Protocol: ProtocolCIW, N: 24},
			wl: NewWorkload(ReplacementChurn(0, 480, 2, "", 97)), exact: true},
		{name: "churn-discrete", cfg: Config{Protocol: ProtocolCIW, N: 32}, wl: churn},
		{name: "churn-continuous", cfg: Config{Protocol: ProtocolCIW, N: 32, Clock: ClockContinuous}, wl: churn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := Grid{
				Protocols:  []string{tc.cfg.Protocol},
				Topologies: []Topology{tc.cfg.Topology},
				Clocks:     []string{tc.cfg.Clock},
				Points:     []Point{{N: tc.cfg.N}},
				Seeds:      3,
				BaseSeed:   5,
				TransientK: tc.k,
				Workload:   tc.wl,
				Backend:    tc.cfg.Backend,
			}
			if tc.cfg.Clock == "" {
				g.Clocks = nil
			}
			ens, err := NewEnsemble(g)
			if err != nil {
				t.Fatal(err)
			}
			cell := ens.Run().Cells[0]

			var times []float64
			root := rng.New(g.BaseSeed)
			for s := 0; s < g.Seeds; s++ {
				src := root.Fork()
				cfg := tc.cfg
				cfg.Seed = src.Uint64()
				adv, sched := src.Fork(), src.Fork()
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := []RunOption{Until(SafeSet), WithScheduler(sched)}
				res := sys.Run(opts...)
				if res.Stabilized && tc.k > 0 {
					if _, err := sys.injectTransientWith(tc.k, adv); err != nil {
						t.Fatal(err)
					}
					res = sys.Run(opts...)
				} else if res.Stabilized && tc.wl != nil {
					res = sys.Run(append(opts, WithWorkload(tc.wl))...)
				}
				if res.Stabilized {
					times = append(times, res.ParallelTime)
				}
			}
			if len(times) == 0 || cell.Recovered != len(times) {
				t.Fatalf("cell recovered %d trials, the rebuilt trials %d", cell.Recovered, len(times))
			}
			if want := summarize(times); cell.ParallelTime != want {
				t.Fatalf("cell ParallelTime %+v,\nthe trials' clocks read %+v", cell.ParallelTime, want)
			}
			if tc.exact {
				var steps []float64
				for _, x := range cell.Samples {
					steps = append(steps, x/float64(tc.cfg.N))
				}
				if want := summarize(steps); cell.ParallelTime != want {
					t.Fatalf("cell ParallelTime %+v,\nStabilizedAt/n reads %+v", cell.ParallelTime, want)
				}
			}
		})
	}
}
