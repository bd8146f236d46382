// ensemble.go implements the first-class parallel experiment layer: an
// Ensemble declares a grid of protocols × (n, r) parameter points ×
// adversary classes × seed counts and runs every trial across GOMAXPROCS
// workers through the deterministic trial engine (internal/trials).
// Aggregation is byte-exact for every worker count: trial randomness is
// pre-derived per (cell, seed) and results land in declaration order, so
// the summary statistics — and their JSON export, plus the pivoted
// CompareResult — are a pure function of the Grid.
//
// Seed s of every cell runs on trials.Derive(BaseSeed, Seeds)[s]: the
// protocol seed, adversary stream and scheduler stream of the one seed
// derivation, which the internal/experiments tables take too, so a cell's
// trials are the tables' trials at the same base seed.

package sspp

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"sspp/internal/rng"
	"sspp/internal/stats"
	"sspp/internal/trials"
)

// EnsembleSchemaVersion identifies the EnsembleResult JSON layout. Fields
// added for the protocol registry ("protocols", per-cell "protocol") are
// omitted when a grid does not cross protocols, so single-protocol exports
// are byte-identical to the pre-registry layout.
const EnsembleSchemaVersion = 1

// CompareSchemaVersion identifies the CompareResult JSON layout.
const CompareSchemaVersion = 1

// Point is one (n, r) parameter point of an Ensemble grid. R parameterizes
// ElectLeader_r and is ignored by the baseline protocols.
type Point struct {
	N int `json:"n"`
	R int `json:"r"`
}

// Grid declares a family of runs: the cross product of Protocols ×
// parameter Points × Adversaries × Seeds independent seeds per cell. Every
// run starts from the (optionally adversarial) configuration, runs to its
// protocol's stabilization condition — the safe set where the protocol has
// one, confirmed correct output otherwise — under the uniform scheduler,
// and reports its arrival time.
type Grid struct {
	// Protocols are registry protocol names (see Protocols()); empty means
	// the paper's ElectLeader_r alone, keeping the pre-registry JSON layout.
	Protocols []string
	// Topologies are the interaction topologies to cross (Complete(),
	// Ring(), RandomRegular(d), ...); empty means the complete graph alone,
	// keeping the pre-topology JSON layout. Cells are stamped with the
	// topology name; random families draw their graph per trial from the
	// trial's protocol seed. Non-complete entries require the agent backend.
	Topologies []Topology
	// Clocks are the simulation clocks to cross (ClockDiscrete,
	// ClockContinuous, ClockContinuousExact); empty means the discrete clock
	// alone, keeping the pre-clock JSON layout. Cells are stamped with the
	// clock name.
	Clocks []string
	// Points are the (n, r) parameter points (at least one).
	Points []Point
	// Adversaries are the starting-configuration classes; empty means a
	// single clean (un-corrupted) start per point, and an explicit ""
	// entry adds a clean-start column next to adversarial ones. Trials
	// whose protocol cannot realize a class (no injectable capability, or
	// an ElectLeader-specific class on a baseline) count as failures.
	Adversaries []Adversary
	// Seeds is the number of independent runs per cell (default 5).
	Seeds int
	// BaseSeed roots all trial randomness (trials.Derive) for
	// reproducibility studies.
	BaseSeed uint64
	// MaxInteractions is the per-run budget (0: each system's
	// DefaultBudget, the generous multiple of its expected shape).
	MaxInteractions uint64
	// Confirm overrides the confirmation window of protocols measured at
	// the output level (0: the per-run default of 20·n). It also applies to
	// safe-set protocols, where it demands the safe set hold that long.
	Confirm uint64
	// TransientK, when positive, switches every trial to the recovery
	// shape of experiment T14: stabilize first, corrupt TransientK agents
	// in place, and measure the re-stabilization time (cell statistics then
	// summarize recovery, and HardResets counts only post-fault resets).
	// Requires protocols with the injectable capability.
	TransientK int
	// Workload, when non-nil, generalizes the TransientK recovery shape to
	// full disruption schedules: every trial stabilizes first, then runs
	// again with the workload attached (WithWorkload) until every scheduled
	// event has fired, and cells additionally aggregate per-event recovery
	// statistics across seeds (Cell.Events). Workload phases carry their own
	// seeds, so a cell's schedule is identical across its seeds — which is
	// what makes per-event aggregation well-defined. Exclusive with
	// TransientK; fault phases require the injectable capability and the
	// agent backend, churn phases the churnable capability and the complete
	// topology.
	Workload *Workload
	// Tau is the timeout parameter for "loosele" points (0: 4·ln n).
	Tau int32
	// SyntheticCoins runs every trial fully derandomized (Appendix B;
	// "electleader" only).
	SyntheticCoins bool
	// Backend selects the simulation backend for every trial ("" or
	// BackendAgent: one struct per agent; BackendSpecies: state counts,
	// requiring every grid protocol's compactable capability and clean
	// starts; BackendAuto: species per point once n crosses the threshold).
	// Two grids differing only in Backend pair their trials at matched
	// seeds — the exact-vs-species faceoff shape of the equivalence tests.
	Backend string
}

// Ensemble executes a Grid across a worker pool. Build with NewEnsemble.
type Ensemble struct {
	grid     Grid
	ax       gridAxes
	streams  []trials.Streams
	workers  int
	obsEvery uint64
	obsFn    func(TrialObservation)
}

// EnsembleOption configures NewEnsemble.
type EnsembleOption func(*Ensemble)

// Workers sets the trial-engine worker count (< 1, the default, means
// GOMAXPROCS). Results are byte-identical for every value.
func Workers(k int) EnsembleOption {
	return func(e *Ensemble) { e.workers = k }
}

// TrialObservation is one Observe checkpoint of one ensemble trial.
type TrialObservation struct {
	// Cell is the trial's cell index in grid declaration order — the index
	// into EnsembleResult.Cells (protocols outermost, then topologies,
	// clocks, points, adversaries).
	Cell int
	// Seed is the trial's seed index within the cell.
	Seed int
	// Snapshot is the population snapshot at the checkpoint.
	Snapshot Snapshot
}

// ObserveTrials streams every trial's Observe checkpoints during Run: fn
// receives a TrialObservation every cadence interactions of every trial
// (plus the final state of each run, per Observe's contract). Trials run
// concurrently across the worker pool, so fn must be safe for concurrent
// use; checkpoints of one trial arrive in order, but checkpoints of
// different trials interleave arbitrarily.
//
// Observation is inert on agent-backend trials under the discrete clock —
// their results are bit-identical with and without it. Species-backend and
// continuous-clock trials step in chunks whose boundaries the observation
// cadence shifts (geometric silent-skips, τ-leaps and bulk time draws are
// truncated at chunk ends), so attaching an observer there can perturb
// their sampled randomness; callers that cache or compare results across
// observed and unobserved runs (cmd/sppd) must restrict observation to the
// inert combination.
func ObserveTrials(cadence uint64, fn func(TrialObservation)) EnsembleOption {
	return func(e *Ensemble) {
		if fn != nil {
			e.obsEvery = cadence
			e.obsFn = fn
		}
	}
}

// NewEnsemble validates the grid and returns an Ensemble ready to Run.
func NewEnsemble(g Grid, opts ...EnsembleOption) (*Ensemble, error) {
	if len(g.Points) == 0 {
		return nil, fmt.Errorf("sspp: ensemble grid has no points")
	}
	if g.Seeds < 0 {
		return nil, fmt.Errorf("sspp: ensemble grid has negative seed count %d", g.Seeds)
	}
	if g.Seeds == 0 {
		g.Seeds = 5
	}
	if g.TransientK < 0 {
		return nil, fmt.Errorf("sspp: ensemble grid has negative transient burst size %d", g.TransientK)
	}
	start := false
	for _, a := range g.Adversaries {
		if a != "" && !slices.Contains(AdversaryClasses(), a) {
			return nil, fmt.Errorf("sspp: ensemble grid names unknown adversary class %q", a)
		}
		start = start || a != ""
	}
	// Every coordinate's trial Config goes through newPlan with what the grid
	// does to its trials, so a combination New rejects is rejected here with
	// New's text. A non-complete topology is planned at every seed's protocol
	// seed, the seed each trial draws its graph from, so an unbuildable or
	// disconnected draw fails the grid instead of its trials.
	e := &Ensemble{grid: g, ax: g.axes(), streams: trials.Derive(g.BaseSeed, g.Seeds)}
	u := g.use(start)
	u.grid = true
	for ci := 0; ci < e.ax.cells(); ci += len(e.ax.advs) {
		_, cfg := e.ax.at(ci)
		for s, st := range e.streams {
			cfg.Seed, u.seed = st.ProtoSeed, s
			if _, err := newPlan(cfg, u); err != nil {
				return nil, err
			}
			if cfg.Topology.IsComplete() {
				break
			}
		}
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Distribution summarizes the per-seed samples of one cell measurement
// (mean/median/quantiles via internal/stats). N is the sample count; the
// zero Distribution means no successful samples.
type Distribution struct {
	N      int     `json:"count"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	CI95   float64 `json:"ci95"`
}

// summarize converts a sample slice into a Distribution.
func summarize(xs []float64) Distribution {
	if len(xs) == 0 {
		return Distribution{}
	}
	s := stats.Summarize(xs)
	return Distribution{
		N: s.N, Mean: s.Mean, Median: s.Median, P10: s.P10, P90: s.P90,
		Min: s.Min, Max: s.Max, CI95: s.CI95,
	}
}

// Cell is the aggregated outcome of one grid cell (a Protocol × Point ×
// Adversary triple): stabilization-arrival statistics over the cell's
// seeds.
type Cell struct {
	// Protocol is the registry protocol name ("" when the grid did not
	// cross protocols, i.e. the default ElectLeader_r).
	Protocol string `json:"protocol,omitempty"`
	// Topology is the interaction-topology name ("" when the grid did not
	// cross topologies, i.e. the complete graph of the paper's model).
	Topology string `json:"topology,omitempty"`
	// Clock is the simulation-clock name ("" when the grid did not cross
	// clocks, i.e. the discrete interaction-counting clock).
	Clock string `json:"clock,omitempty"`
	// Point is the (n, r) parameter point.
	Point Point `json:"point"`
	// Adversary is the starting-configuration class ("" for a clean start).
	Adversary Adversary `json:"adversary,omitempty"`
	// Seeds is the number of trials run for the cell.
	Seeds int `json:"seeds"`
	// Recovered counts trials that stabilized within budget (and, with
	// TransientK, re-stabilized after the fault burst).
	Recovered int `json:"recovered"`
	// Failures counts trials that did not (including unrealizable
	// injections at this point).
	Failures int `json:"failures"`
	// Interactions summarizes stabilization arrival times over recovered
	// trials, in interactions (with TransientK: post-fault recovery times).
	Interactions Distribution `json:"interactions"`
	// ParallelTime summarizes each recovered trial's Result.ParallelTime,
	// the paper's time unit read off its clock, counted from the start of
	// its final run (with TransientK or a Workload, the recovery run).
	ParallelTime Distribution `json:"parallel_time"`
	// HardResets summarizes full resets per recovered trial (with
	// TransientK: resets after the fault burst only).
	HardResets Distribution `json:"hard_resets"`
	// Samples holds the raw stabilization arrival times (interactions) of
	// the recovered trials, in seed order.
	Samples []float64 `json:"samples"`
	// Events aggregates per-event recovery across the cell's seeds when the
	// grid carried a Workload: one entry per scheduled event, in firing
	// order (omitted otherwise, keeping pre-workload exports byte-identical).
	Events []EventCell `json:"events,omitempty"`
}

// EventCell is the per-seed aggregation of one scheduled workload event
// within a cell: how many trials reached it, how many were observed to
// recover afterwards, and the distribution of recovery times.
type EventCell struct {
	// At is the interaction count the event was scheduled for.
	At uint64 `json:"at"`
	// Kind is the event kind's wire name (transient, inject, join, leave).
	Kind string `json:"kind"`
	// K is the burst size of transient events.
	K int `json:"k,omitempty"`
	// Class is the adversary class of inject and join events.
	Class string `json:"class,omitempty"`
	// Fired counts trials that reached the event before stopping.
	Fired int `json:"fired"`
	// Recovered counts trials whose stop condition was observed to hold at
	// some poll after the event fired.
	Recovered int `json:"recovered"`
	// Recovery summarizes RecoveredAt − At over recovered trials, in
	// interactions (resolution: the polling cadence).
	Recovery Distribution `json:"recovery"`
}

// EnsembleResult is the aggregated outcome of an Ensemble run. Its JSON
// encoding is byte-identical for every worker count.
type EnsembleResult struct {
	SchemaVersion int `json:"schema_version"`
	// Protocols echoes the grid's protocol list (omitted when the grid did
	// not cross protocols).
	Protocols []string `json:"protocols,omitempty"`
	// Topologies echoes the grid's topology names (omitted when the grid
	// did not cross topologies, keeping pre-topology exports byte-identical).
	Topologies []string `json:"topologies,omitempty"`
	// Clocks echoes the grid's clock names (omitted when the grid did not
	// cross clocks, keeping pre-clock exports byte-identical).
	Clocks []string `json:"clocks,omitempty"`
	// Backend echoes the grid's backend (omitted for the default agent
	// backend, keeping pre-backend exports byte-identical).
	Backend  string `json:"backend,omitempty"`
	Seeds    int    `json:"seeds"`
	BaseSeed uint64 `json:"base_seed"`
	Cells    []Cell `json:"cells"`
}

// CellKey identifies one cell of an EnsembleResult by the coordinates it is
// stamped with. An empty Protocol, Topology or Clock names an axis the grid
// did not cross (its cells carry "" there); an empty Adversary is a clean
// start.
type CellKey struct {
	Protocol  string
	Topology  string
	Clock     string
	Point     Point
	Adversary Adversary
}

// Cell returns the cell whose coordinates equal key exactly.
func (r *EnsembleResult) Cell(key CellKey) (Cell, bool) {
	for _, c := range r.Cells {
		if (CellKey{c.Protocol, c.Topology, c.Clock, c.Point, c.Adversary}) == key {
			return c, true
		}
	}
	return Cell{}, false
}

// JSON renders the result as indented JSON.
func (r *EnsembleResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteJSON writes the indented JSON rendering to w.
func (r *EnsembleResult) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CompareRow is one (point, adversary) row of a CompareResult, holding the
// per-protocol cells side by side.
type CompareRow struct {
	// Topology is the interaction-topology name ("" when the grid did not
	// cross topologies).
	Topology string `json:"topology,omitempty"`
	// Clock is the simulation-clock name ("" when the grid did not cross
	// clocks).
	Clock string `json:"clock,omitempty"`
	// Point is the (n, r) parameter point.
	Point Point `json:"point"`
	// Adversary is the starting-configuration class ("" for clean starts).
	Adversary Adversary `json:"adversary,omitempty"`
	// Cells holds one cell per protocol, in CompareResult.Protocols order.
	Cells []Cell `json:"cells"`
}

// CompareResult pivots an EnsembleResult for cross-protocol comparison: one
// row per (point, adversary) with the protocols side by side. Like the
// EnsembleResult it derives from, its JSON encoding is byte-identical for
// every worker count.
type CompareResult struct {
	SchemaVersion int          `json:"schema_version"`
	Protocols     []string     `json:"protocols"`
	Topologies    []string     `json:"topologies,omitempty"`
	Clocks        []string     `json:"clocks,omitempty"`
	Backend       string       `json:"backend,omitempty"`
	Seeds         int          `json:"seeds"`
	BaseSeed      uint64       `json:"base_seed"`
	Rows          []CompareRow `json:"rows"`
}

// Compare pivots the result by protocol: every (topology, point, adversary)
// triple becomes one row holding each protocol's cell. Grids that did not
// cross protocols pivot to single-cell rows labelled "electleader".
func (r *EnsembleResult) Compare() *CompareResult {
	protos := r.Protocols
	if len(protos) == 0 {
		protos = []string{ProtocolElectLeader}
	}
	out := &CompareResult{
		SchemaVersion: CompareSchemaVersion,
		Protocols:     protos,
		Topologies:    r.Topologies,
		Clocks:        r.Clocks,
		Backend:       r.Backend,
		Seeds:         r.Seeds,
		BaseSeed:      r.BaseSeed,
	}
	if len(r.Cells)%len(protos) != 0 {
		return out
	}
	perProto := len(r.Cells) / len(protos)
	for j := 0; j < perProto; j++ {
		row := CompareRow{
			Topology:  r.Cells[j].Topology,
			Clock:     r.Cells[j].Clock,
			Point:     r.Cells[j].Point,
			Adversary: r.Cells[j].Adversary,
			Cells:     make([]Cell, 0, len(protos)),
		}
		for pi := range protos {
			cell := r.Cells[pi*perProto+j]
			if cell.Protocol == "" {
				cell.Protocol = protos[pi]
			}
			row.Cells = append(row.Cells, cell)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// JSON renders the comparison as indented JSON.
func (r *CompareResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteJSON writes the indented JSON rendering to w.
func (r *CompareResult) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// trialOutcome is the raw result of one (cell, seed) trial: its final run
// (zero when the trial failed before running; a Workload trial's per-event
// outcomes align by index across a cell's seeds) and that run's hard resets.
type trialOutcome struct {
	res  Result
	hard uint64
}

// gridAxes is the resolved axis layout of a grid: every axis slice with its
// empty-means-default resolution applied, and the grid-wide fields of every
// trial Config. Its method at is the one decoding of a cell index.
type gridAxes struct {
	base      Config // the trial Config fields every cell shares
	protos    []string
	topos     []Topology
	topoNames []string // "" when the grid did not cross topologies
	clocks    []string
	points    []Point
	advs      []Adversary
}

// cells returns the total cell count of the grid.
func (ax *gridAxes) cells() int {
	return len(ax.protos) * len(ax.topos) * len(ax.clocks) * len(ax.points) * len(ax.advs)
}

// axes resolves the grid's axis slices.
func (g *Grid) axes() gridAxes {
	ax := gridAxes{
		base:      Config{SyntheticCoins: g.SyntheticCoins, Tau: g.Tau, Backend: g.Backend},
		protos:    orZero(g.Protocols),
		topos:     orZero(g.Topologies),
		topoNames: []string{""},
		clocks:    orZero(g.Clocks),
		points:    g.Points,
		advs:      orZero(g.Adversaries),
	}
	if len(g.Topologies) > 0 {
		ax.topoNames = make([]string, len(g.Topologies))
		for i, top := range g.Topologies {
			ax.topoNames[i] = top.Name()
		}
	}
	return ax
}

// orZero resolves an empty grid axis to its zero value alone: the default
// protocol, the complete topology, the discrete clock, a clean start.
func orZero[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// at decodes cell index ci, in declaration order (protocols outermost,
// adversaries innermost), into the coordinates the cell is stamped with and
// the Config its trials build (Seed unset).
func (ax *gridAxes) at(ci int) (CellKey, Config) {
	var key CellKey
	key.Adversary, ci = ax.advs[ci%len(ax.advs)], ci/len(ax.advs)
	key.Point, ci = ax.points[ci%len(ax.points)], ci/len(ax.points)
	key.Clock, ci = ax.clocks[ci%len(ax.clocks)], ci/len(ax.clocks)
	ti := ci % len(ax.topos)
	key.Topology, key.Protocol = ax.topoNames[ti], ax.protos[ci/len(ax.topos)]
	cfg := ax.base
	cfg.Protocol, cfg.Topology, cfg.Clock = key.Protocol, ax.topos[ti], key.Clock
	cfg.N, cfg.R = key.Point.N, key.Point.R
	return key, cfg
}

// use is what every trial of the grid does with its system; start reports
// an adversarial start.
func (g *Grid) use(start bool) use {
	faults, churn := g.Workload.uses()
	return use{start: start, faults: faults || g.TransientK > 0, churn: churn,
		transientK: g.TransientK > 0, workload: g.Workload != nil}
}

// trial builds trial (ci, s) through the one trial path of Run and
// TrialRecording: the plan of the cell's Config at the seed's protocol
// seed, admitted for what the trial does (a recording also replays), its
// System, and the run options every run of the trial shares, dealing pairs
// from sched. It also returns the cell's adversary class.
func (e *Ensemble) trial(ci, s int, sched Scheduler, record bool) (*System, Adversary, []RunOption, error) {
	g := &e.grid
	key, cfg := e.ax.at(ci)
	cfg.Seed = e.streams[s].ProtoSeed
	u := g.use(key.Adversary != "")
	u.record, u.replay = record, record
	p, err := newPlan(cfg, u)
	if err != nil {
		return nil, "", nil, err
	}
	sys, err := p.build()
	if err != nil {
		return nil, "", nil, err
	}
	opts := []RunOption{Until(SafeSet), WithScheduler(sched), MaxInteractions(g.MaxInteractions)}
	if g.Confirm > 0 {
		opts = append(opts, Confirm(g.Confirm))
	}
	if e.obsFn != nil {
		opts = append(opts, Observe(e.obsEvery, func(snap Snapshot) {
			e.obsFn(TrialObservation{Cell: ci, Seed: s, Snapshot: snap})
		}))
	}
	return sys, key.Adversary, opts, nil
}

// runTrial executes trial (ci, s): build, optionally inject the cell's
// adversary class, run to the stabilization condition — and, in TransientK
// mode, corrupt and run again, reporting the recovery.
func (e *Ensemble) runTrial(ci, s int) trialOutcome {
	g := &e.grid
	advSrc, schedSrc := e.streams[s].Adv, e.streams[s].Sched
	sys, class, opts, err := e.trial(ci, s, &schedSrc, false)
	if err != nil {
		return trialOutcome{}
	}
	if class != "" {
		if err := sys.injectWith(class, &advSrc); err != nil {
			return trialOutcome{}
		}
	}
	res := sys.Run(opts...)
	if !res.Stabilized {
		return trialOutcome{res: res}
	}
	var hardBefore uint64
	if g.Workload != nil || g.TransientK > 0 {
		// Recovery shape: the stabilized population absorbs a transient
		// burst or the whole workload schedule, whose per-event outcomes
		// ride along whether or not the final re-stabilization landed
		// within budget.
		hardBefore = sys.HardResets()
		if g.Workload != nil {
			opts = append(opts, WithWorkload(g.Workload))
		} else if _, err := sys.injectTransientWith(g.TransientK, &advSrc); err != nil {
			return trialOutcome{}
		}
		res = sys.Run(opts...)
	}
	return trialOutcome{res: res, hard: sys.HardResets() - hardBefore}
}

// Run executes every trial of the grid across the worker pool and
// aggregates per cell, in grid declaration order (protocols outermost,
// then topologies, then clocks, then points, then adversaries).
func (e *Ensemble) Run() *EnsembleResult {
	g := &e.grid
	cells := e.ax.cells()
	outs := trials.Run(e.workers, cells*g.Seeds, g.BaseSeed, func(j int, _ *rng.PRNG) trialOutcome {
		return e.runTrial(j/g.Seeds, j%g.Seeds)
	})

	out := &EnsembleResult{
		SchemaVersion: EnsembleSchemaVersion,
		Protocols:     g.Protocols,
		Backend:       g.Backend,
		Seeds:         g.Seeds,
		BaseSeed:      g.BaseSeed,
		Cells:         make([]Cell, 0, cells),
	}
	if len(g.Topologies) > 0 {
		out.Topologies = e.ax.topoNames
	}
	if len(g.Clocks) > 0 {
		out.Clocks = g.Clocks
	}
	for ci := 0; ci < cells; ci++ {
		key, _ := e.ax.at(ci)
		cell := Cell{
			Protocol:  key.Protocol,
			Topology:  key.Topology,
			Clock:     key.Clock,
			Point:     key.Point,
			Adversary: key.Adversary,
			Seeds:     g.Seeds,
			Samples:   []float64{},
		}
		var par, hard []float64
		for s := 0; s < g.Seeds; s++ {
			o := outs[ci*g.Seeds+s]
			if !o.res.Stabilized {
				cell.Failures++
				continue
			}
			cell.Recovered++
			cell.Samples = append(cell.Samples, float64(o.res.StabilizedAt))
			par = append(par, o.res.ParallelTime)
			hard = append(hard, float64(o.hard))
		}
		cell.Interactions = summarize(cell.Samples)
		cell.ParallelTime = summarize(par)
		cell.HardResets = summarize(hard)
		// Per-event recovery aggregation of Workload grids: the schedule is
		// identical across a cell's seeds (trials that failed before the
		// workload ran contribute no outcomes), so outcomes align by index.
		var evCells []EventCell
		var recSamples [][]float64
		for s := 0; s < g.Seeds; s++ {
			for i, eo := range outs[ci*g.Seeds+s].res.EventOutcomes() {
				if i == len(evCells) {
					evCells = append(evCells, EventCell{At: eo.At, Kind: eo.Kind, K: eo.K, Class: eo.Class})
					recSamples = append(recSamples, nil)
				}
				if eo.Fired {
					evCells[i].Fired++
				}
				if eo.Recovered {
					evCells[i].Recovered++
					recSamples[i] = append(recSamples[i], float64(eo.RecoveredAt-eo.At))
				}
			}
		}
		for i := range evCells {
			evCells[i].Recovery = summarize(recSamples[i])
		}
		cell.Events = evCells
		out.Cells = append(out.Cells, cell)
	}
	return out
}

// TrialRecording re-executes the (cell, seed) trial identified by ci (the
// index into EnsembleResult.Cells) and s (the seed index) with a recording
// scheduler, returning the captured schedule and the trial's derived
// protocol seed. The pair (recording, protoSeed) fully determines the trial
// through the public API: rebuild the trial's Config with Seed set to
// protoSeed, run it under WithScheduler(rec.Replay()) and the same budget,
// and the run is bit-identical to the ensemble's — the replay surface of
// cmd/sppd.
//
// Supported for clean-start cells (no adversary class, no TransientK, no
// Workload) on the complete topology and the agent backend: those are
// exactly the trials whose outcome is a pure function of (protoSeed,
// schedule). Cells with adversarial starts or faults additionally consume a
// private adversary stream that the public API cannot re-derive, species
// cells consume scheduler randomness in chunk-shaped draws rather than
// pairs, and non-complete topologies sample edge indices through a
// graph-bound scheduler; all three return an error. The re-execution runs
// with the trial's own run options, so an ObserveTrials hook sees it too.
func (e *Ensemble) TrialRecording(ci, s int) (*Recording, uint64, error) {
	if ci < 0 || ci >= e.ax.cells() {
		return nil, 0, fmt.Errorf("sspp: cell index %d out of range [0, %d)", ci, e.ax.cells())
	}
	if s < 0 || s >= e.grid.Seeds {
		return nil, 0, fmt.Errorf("sspp: seed index %d out of range [0, %d)", s, e.grid.Seeds)
	}
	schedSrc := e.streams[s].Sched
	rec := NewRecorder(&schedSrc)
	sys, _, opts, err := e.trial(ci, s, rec, true)
	if err != nil {
		return nil, 0, err
	}
	if res := sys.Run(opts...); res.Err != nil {
		return nil, 0, res.Err
	}
	return rec.Recording(), e.streams[s].ProtoSeed, nil
}
