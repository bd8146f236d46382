package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspp"
)

// scale fixes the size of every workload input. fullScale is the benchmark;
// the tests run tinyScale, so a smoke run of a workload takes milliseconds.
type scale struct {
	t1N, t1R int
	// t1Budget is the per-trial interaction budget (0: the protocol's
	// default, which every full-scale trial stabilizes well within).
	t1Budget       uint64
	electN, electR int
	ciwN           int
	ciwSteps       uint64
	// setupFor is how long set-up repeats (see minSetupReps).
	setupFor time.Duration
	// cellSeeds is the trial count of every sppd cell.
	cellSeeds  int
	coldPoints []sspp.Point
	// warmPoints are the points of the warm universe; each prewarmed grid
	// crosses warmGridPoints of them with every warm adversary.
	warmPoints     []sspp.Point
	warmGridPoints int
	warmGrids      int
	// The -trace probes: core-replayed t1 trials, cold requests whose cells
	// are recomputed directly, warm repeats of each, kernel call counts and
	// species step chunks.
	replaySeeds   int
	probeRequests int
	probeRepeats  int
	rngCalls      int
	rankingCalls  int
	detectCalls   int
	stepChunks    int
}

var fullScale = scale{
	t1N: 256, t1R: 64,
	electN: 100_000, electR: 64,
	ciwN: 1_000_000, ciwSteps: 100_000_000,
	setupFor:   2 * time.Second,
	cellSeeds:  4,
	coldPoints: []sspp.Point{{N: 48, R: 8}, {N: 64, R: 16}},
	warmPoints: []sspp.Point{
		{N: 32, R: 4}, {N: 32, R: 8}, {N: 40, R: 8}, {N: 48, R: 8},
		{N: 48, R: 12}, {N: 56, R: 8}, {N: 64, R: 8}, {N: 64, R: 16},
	},
	warmGridPoints: 4,
	warmGrids:      8,
	replaySeeds:    16,
	probeRequests:  4,
	probeRepeats:   8,
	rngCalls:       1 << 20,
	rankingCalls:   1 << 18,
	detectCalls:    1 << 13,
	stepChunks:     8,
}

// config is everything a workload's inputs derive from.
type config struct {
	seed    uint64
	workers int
	sc      scale
	// tmpDir holds the sppd disk stores; it is the run's own directory,
	// removed when the run ends.
	tmpDir string
	// collect runs the garbage collector before every operation, outside
	// its timing, so each one starts from a collected heap as the first run
	// in a fresh process would. The simulation workloads set it: their
	// operations are long and few, and without it the previous trial's
	// garbage moves both their latency and their peak resident set.
	collect bool
}

// opResult is the outcome of one operation. A failed operation counts in
// "failed" and its latency still counts in the timing metrics.
type opResult struct {
	ok   bool
	note string
}

func failed(format string, args ...any) opResult {
	return opResult{note: fmt.Sprintf(format, args...)}
}

// workload is one set of inputs the benchmark drives in a closed loop.
type workload interface {
	// setup builds what the operations share. It may run several times;
	// teardown releases each build but the last.
	setup() error
	// op runs operation i, whose inputs are a function of the seed and i.
	op(i int, tc traceCtx) opResult
	// teardown releases what setup built; it is safe after a failed setup.
	teardown()
}

type workloadDef struct {
	name string
	why  string
	// server marks the sppd workloads: nproc closed-loop clients against
	// nproc server workers, since concurrency is part of what a server
	// does. The simulation workloads run one trial at a time, the latency
	// a user waiting on one run sees.
	server bool
	make   func(cfg config) workload
}

// workloads is the benchmark's workload list; BENCHMARK.json declares the
// same names.
var workloads = []workloadDef{
	{"t1-agent", "the paper's T1 time to the safe set at r = n/4 on the agent backend, where Interact and the safe-set walk dominate",
		false, func(cfg config) workload { return &t1Agent{cfg: cfg} }},
	{"species-elect", "the count engine's worst case: about n distinct O(r)-word states, so interning and state copies dominate",
		false, func(cfg config) workload { return newSpeciesElect(cfg) }},
	{"species-ciw", "the million-agent fast path (alias sampling, silent skips, rng kernels); never calls core.Interact",
		false, func(cfg config) workload { return newSpeciesCIW(cfg) }},
	{"sppd-cold", "the sppd write path: every request is a fresh 4-cell grid, so cells are decomposed, simulated, cached and stored",
		true, func(cfg config) workload { return &sppdCold{cfg: cfg} }},
	{"sppd-warm", "the sppd read path: repeats of prewarmed 16-cell grids, all served from the in-memory cache with no simulation",
		true, func(cfg config) workload { return &sppdWarm{cfg: cfg} }},
}

// workersFor is the closed loop's worker (client) count for a workload.
func workersFor(def workloadDef, nproc int) int {
	if def.server {
		return nproc
	}
	return 1
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Set-up repeats at least minSetupReps times and until the scale's setupFor
// has passed (at most maxSetupReps), and setup_s is the median: a one-off
// stall cannot move it, a cheap set-up is still timed many times, and the
// repeats of all but the cheapest set-ups span several yardstick passes.
const (
	minSetupReps = 5
	maxSetupReps = 2000
)

// runStats is what one measured loop produced. Its times are as measured;
// the metrics scale them by the yardstick.
type runStats struct {
	setupS []float64
	opMS   []float64 // in operation-index order
	yardMS []float64 // yardstick pass times
	// setupPass and opPass are how many passes had run when each set-up
	// repeat and each operation began.
	setupPass []int
	opPass    []int
	// rssMB is the peak resident set of each window between two yardstick
	// passes in the loop, less the yardstick's.
	rssMB     []float64
	attempted int
	failed    int
	notes     []string // the first few failure notes
	// Runtime allocation and GC deltas over the measured loop.
	allocBytes, allocObjects, gcCycles uint64
}

const maxNotes = 5

// drive sets the workload up, then runs operations from cfg.workers
// closed-loop workers until dur has passed: each worker starts its next
// operation as soon as its previous one returns, and none starts after the
// deadline (except operation 0, so every run measures something). Yardstick
// passes run between set-up repeats and between operations.
func drive(w workload, cfg config, dur time.Duration, tr *tracer) (runStats, error) {
	var st runStats
	ys, err := newYardstick()
	if err != nil {
		return st, fmt.Errorf("yardstick: %w", err)
	}
	defer ys.close()
	start := now()
	for rep := 0; rep < maxSetupReps; rep++ {
		ys.maybePass()
		if rep > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := now()
		if err := w.setup(); err != nil {
			w.teardown()
			return st, fmt.Errorf("set-up: %w", err)
		}
		st.setupS = append(st.setupS, now().Sub(t0).Seconds())
		st.setupPass = append(st.setupPass, ys.done())
		if rep+1 >= minSetupReps && now().Sub(start) >= cfg.sc.setupFor {
			break
		}
	}
	defer w.teardown()
	// A pass between set-up and the loop times the machine just before the
	// first operation and closes set-up's last resident-set window, so the
	// windows peak_rss_mb takes are the loop's alone.
	ys.pass()
	loopWindows := len(ys.rssMB)

	type sample struct {
		i    int
		ms   float64
		pass int
		res  opResult
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := now().Add(dur)
	var next atomic.Int64
	perWorker := make([][]sample, cfg.workers)
	var wg sync.WaitGroup
	for wk := 0; wk < cfg.workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i > 0 && !now().Before(deadline) {
					return
				}
				ys.maybePass()
				ys.gate.RLock()
				if cfg.collect {
					runtime.GC()
				}
				pass := ys.done()
				trace := tr.newTrace()
				root := tr.begin(trace, 0, "op")
				t0 := now()
				res := w.op(i, traceCtx{tr: tr, trace: trace, parent: root.ID})
				ms := float64(now().Sub(t0)) / 1e6
				tr.end(root)
				ys.gate.RUnlock()
				perWorker[wk] = append(perWorker[wk], sample{i, ms, pass, res})
			}
		}(wk)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	ys.pass() // the last operations' pass after
	if ys.rssErr != nil {
		return st, fmt.Errorf("resident set: %w", ys.rssErr)
	}
	st.yardMS, st.rssMB = ys.samples, ys.rssMB[loopWindows:]

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	for _, s := range all {
		st.opMS = append(st.opMS, s.ms)
		st.opPass = append(st.opPass, s.pass)
		st.attempted++
		if !s.res.ok {
			st.failed++
			if len(st.notes) < maxNotes {
				st.notes = append(st.notes, fmt.Sprintf("op %d: %s", s.i, s.res.note))
			}
		}
	}
	st.allocBytes = after.TotalAlloc - before.TotalAlloc
	st.allocObjects = after.Mallocs - before.Mallocs
	st.gcCycles = uint64(after.NumGC - before.NumGC)
	return st, nil
}

// endToEndMetrics derives the end-to-end metrics of a measured loop: the
// median set-up time and the mean operation time, each set-up repeat and
// operation taken at the yardstick's reference speed, and the median
// window peak of the resident set.
func endToEndMetrics(st runStats) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(atReference(st.setupS, st.setupPass, st.yardMS)),
		"op_ms.mean":  mean(atReference(st.opMS, st.opPass, st.yardMS)),
		"peak_rss_mb": median(st.rssMB),
	}
}

// atReference scales each time xs[i], which began when done[i] passes had
// run, by yardstickRefMS over the passes around it.
func atReference(xs []float64, done []int, passes []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * yardstickRefMS / localPassMS(passes, done[i])
	}
	return out
}

// t1Input is the seeds of one t1 trial.
type t1Input struct{ protoSeed, injectSeed, schedSeed uint64 }

const (
	saltT1 = iota + 1
	saltElect
	saltCIW
	saltCold
	saltWarmOrder
	saltWarmPoints
	saltWarmBase
	saltProbe
)

func t1InputFor(seed uint64, i int) t1Input {
	base := derive(derive(seed, saltT1), uint64(i))
	return t1Input{protoSeed: base, injectSeed: derive(base, 1), schedSeed: derive(base, 2)}
}

// buildT1 is the public-API construction of one t1 trial: ElectLeader_r
// from the triggered adversarial start.
func buildT1(sc scale, in t1Input) (*sspp.System, error) {
	sys, err := sspp.New(sspp.Config{N: sc.t1N, R: sc.t1R, Seed: in.protoSeed})
	if err != nil {
		return nil, err
	}
	if err := sys.Inject(sspp.AdversaryTriggered, in.injectSeed); err != nil {
		return nil, err
	}
	return sys, nil
}

func runT1(sys *sspp.System, in t1Input, budget uint64) sspp.Result {
	return sys.Run(sspp.Until(sspp.SafeSet), sspp.SchedulerSeed(in.schedSeed), sspp.MaxInteractions(budget))
}

// checkT1 is the correctness rule of a t1 trial: it stabilized, without
// error, with exactly one leader.
func checkT1(sys *sspp.System, res sspp.Result) opResult {
	switch {
	case res.Err != nil:
		return failed("run error: %v", res.Err)
	case !res.Stabilized:
		return failed("not stabilized after %d interactions", res.Interactions)
	case sys.Leaders() != 1:
		return failed("%d leaders in the safe set", sys.Leaders())
	}
	return opResult{ok: true}
}

type t1Agent struct {
	cfg    config
	builds int // set-ups so far
}

// setup builds a trial's system: the work between the process and its
// first simulated interaction. Each repeat builds the next trial's, so the
// median set-up time does not hang on one input.
func (w *t1Agent) setup() error {
	_, err := buildT1(w.cfg.sc, t1InputFor(w.cfg.seed, w.builds))
	w.builds++
	return err
}

func (w *t1Agent) op(i int, tc traceCtx) opResult {
	in := t1InputFor(w.cfg.seed, i)
	var sys *sspp.System
	var err error
	tc.call("build", func() { sys, err = buildT1(w.cfg.sc, in) })
	if err != nil {
		return failed("build: %v", err)
	}
	var res sspp.Result
	tc.call("run", func() { res = runT1(sys, in, w.cfg.sc.t1Budget) })
	return checkT1(sys, res)
}

func (w *t1Agent) teardown() {}

// speciesRun is one species-backend trial shape: build a clean system and
// step it a fixed budget through the sspp facade.
type speciesRun struct {
	cfg    config
	salt   uint64
	conf   func(seed uint64) sspp.Config
	budget uint64
	builds int // set-ups so far
}

func newSpeciesElect(cfg config) *speciesRun {
	sc := cfg.sc
	return &speciesRun{cfg: cfg, salt: saltElect, budget: 2 * uint64(sc.electN),
		conf: func(seed uint64) sspp.Config {
			return sspp.Config{N: sc.electN, R: sc.electR, Seed: seed, Backend: sspp.BackendSpecies}
		}}
}

func newSpeciesCIW(cfg config) *speciesRun {
	sc := cfg.sc
	return &speciesRun{cfg: cfg, salt: saltCIW, budget: sc.ciwSteps,
		conf: func(seed uint64) sspp.Config {
			return sspp.Config{Protocol: sspp.ProtocolCIW, N: sc.ciwN, Seed: seed, Backend: sspp.BackendSpecies}
		}}
}

func (w *speciesRun) seeds(i int) (proto, sched uint64) {
	base := derive(derive(w.cfg.seed, w.salt), uint64(i))
	return base, derive(base, 1)
}

func (w *speciesRun) build(seed uint64) (*sspp.System, error) {
	sys, err := sspp.New(w.conf(seed))
	if err != nil {
		return nil, err
	}
	if sys.Backend() != sspp.BackendSpecies {
		return nil, errors.New("system did not resolve to the species backend")
	}
	return sys, nil
}

// setup builds a trial's system, the next trial's on each repeat, as the
// t1 set-up does.
func (w *speciesRun) setup() error {
	proto, _ := w.seeds(w.builds)
	_, err := w.build(proto)
	w.builds++
	return err
}

func (w *speciesRun) op(i int, tc traceCtx) opResult {
	proto, sched := w.seeds(i)
	var sys *sspp.System
	var err error
	tc.call("build", func() { sys, err = w.build(proto) })
	if err != nil {
		return failed("build: %v", err)
	}
	tc.call("step", func() { sys.Step(sched, w.budget) })
	if got := sys.Interactions(); got != w.budget {
		return failed("stepped %d interactions, want %d", got, w.budget)
	}
	return opResult{ok: true}
}

func (w *speciesRun) teardown() {}
