// Package serve implements the sppd simulation service: an HTTP JSON API
// that accepts Ensemble grid specs, decomposes them into content-addressed
// cells, runs cells on a bounded worker pool with singleflight dedup, and
// caches results in an in-memory LRU backed by an optional on-disk store.
//
// The whole design rests on one property of the public Ensemble layer: a
// trial's randomness is derived per (cell config, seed index) independently
// of the grid layout and the worker count (trials.Derive, which the
// Ensemble calls), so the cell computed by a one-cell grid is byte-identical
// to the same cell inside any larger grid. That makes cells — not grids —
// the cacheable unit: overlapping grids from different clients share cells,
// and a warm repeat of any previously computed grid is assembled from
// cached bytes without simulating anything.
//
// spec.go defines the request surface (GridSpec), its decomposition into
// resolved per-cell configs (CellSpec), and the compilation of a CellSpec
// back into a one-cell sspp.Ensemble. The service resolves nothing itself:
// protocol, backend and clock selectors go through sspp.Resolve, the same
// resolver every System is built through, so a content address always
// names the computation the engine runs. hash.go canonically encodes a
// CellSpec into its content address. server.go serves the HTTP API.
package serve

import (
	"fmt"
	"math"

	"sspp"
)

// GridSpec is the request body of POST /v1/grids: the declarative cross
// product the public sspp.Grid accepts, plus a backend axis (sspp.Grid fixes
// one backend per grid; the service crosses them because cells are
// independent). Empty axes default exactly like sspp.Grid: the paper's
// ElectLeader_r, the agent backend, the complete topology, the discrete
// clock, a single clean start, 5 seeds.
type GridSpec struct {
	// Protocols are registry protocol names (GET /v1/protocols lists them).
	Protocols []string `json:"protocols,omitempty"`
	// Backends are sspp backend selectors: "agent", "species" or "auto"
	// ("auto" resolves per point before hashing, so a cell's content address
	// never depends on selector spelling).
	Backends []string `json:"backends,omitempty"`
	// Topologies are topology names in sspp.ParseTopology syntax
	// ("complete", "ring", "torus", "random-regular(8)", "erdos-renyi(0.1)").
	Topologies []string `json:"topologies,omitempty"`
	// Clocks are simulation clock names ("discrete", "continuous",
	// "continuous-exact").
	Clocks []string `json:"clocks,omitempty"`
	// Points are the (n, r) parameter points (at least one).
	Points []sspp.Point `json:"points"`
	// Adversaries are starting-configuration class names; an explicit ""
	// entry adds a clean-start column.
	Adversaries []string `json:"adversaries,omitempty"`
	// Seeds is the number of independent trials per cell (default 5).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed offsets all trial randomness.
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// MaxInteractions is the per-trial budget (0: the protocol's default).
	MaxInteractions uint64 `json:"max_interactions,omitempty"`
	// Confirm overrides the confirmation window (0: per-run default).
	Confirm uint64 `json:"confirm,omitempty"`
	// TransientK switches trials to the stabilize-corrupt-recover shape.
	TransientK int `json:"transient_k,omitempty"`
	// Tau is the "loosele" timeout parameter (0: 4·ln n, at least 2; 1 is
	// rejected). Every τ ≥ 2 is accepted, but a small τ at a small n may
	// never confirm a leader in the default confirm window (see
	// sspp.Config.Tau).
	Tau int32 `json:"tau,omitempty"`
	// SyntheticCoins runs trials fully derandomized ("electleader" only).
	SyntheticCoins bool `json:"synthetic_coins,omitempty"`
	// Workload attaches a disruption schedule to every trial (exclusive with
	// TransientK; see the sspp workload phase constructors).
	Workload []PhaseSpec `json:"workload,omitempty"`
	// CheckpointEvery, when positive, streams an Observe checkpoint over the
	// job's SSE feed every that many interactions of every trial. Checkpoints
	// are attached only where observation is provably inert (agent backend,
	// discrete clock — see sspp.ObserveTrials), so the cadence is NOT part of
	// any cell's content address: observed and unobserved computations of the
	// same cell are bit-identical.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// PhaseSpec is the JSON form of one workload phase, mirroring the public
// sspp constructors; Kind selects which one.
type PhaseSpec struct {
	// Kind is one of "transient-burst", "reinjection", "join", "leave",
	// "replacement-churn", "join-leave-churn", "churn-bursts",
	// "population-step".
	Kind string `json:"kind"`
	// At is the firing time of instantaneous phases (interactions).
	At uint64 `json:"at,omitempty"`
	// Start and End bound the window of process phases (interactions).
	Start uint64 `json:"start,omitempty"`
	End   uint64 `json:"end,omitempty"`
	// Every is the burst period of "churn-bursts".
	Every uint64 `json:"every,omitempty"`
	// K is the burst size of "transient-burst".
	K int `json:"k,omitempty"`
	// Delta is the population change of "population-step".
	Delta int `json:"delta,omitempty"`
	// Joins and Leaves are the per-burst sizes of "churn-bursts".
	Joins  int `json:"joins,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	// Rate is the event rate of the churn processes (events per interaction).
	Rate float64 `json:"rate,omitempty"`
	// JoinFrac is the join fraction of "join-leave-churn".
	JoinFrac float64 `json:"join_frac,omitempty"`
	// Class is the adversary class of phases that inject or shape joiners.
	Class string `json:"class,omitempty"`
	// Seed seeds the phase's own randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// compile maps the spec to its public constructor.
func (p PhaseSpec) compile() (sspp.WorkloadPhase, error) {
	class := sspp.Adversary(p.Class)
	switch p.Kind {
	case "transient-burst":
		return sspp.TransientBurst(p.At, p.K, p.Seed), nil
	case "reinjection":
		return sspp.Reinjection(p.At, class, p.Seed), nil
	case "join":
		return sspp.JoinAt(p.At, class, p.Seed), nil
	case "leave":
		return sspp.LeaveAt(p.At, p.Seed), nil
	case "replacement-churn":
		return sspp.ReplacementChurn(p.Start, p.End, p.Rate, class, p.Seed), nil
	case "join-leave-churn":
		return sspp.JoinLeaveChurn(p.Start, p.End, p.Rate, p.JoinFrac, class, p.Seed), nil
	case "churn-bursts":
		return sspp.ChurnBursts(p.Start, p.End, p.Every, p.Joins, p.Leaves, class, p.Seed), nil
	case "population-step":
		return sspp.PopulationStep(p.At, p.Delta, class, p.Seed), nil
	default:
		return sspp.WorkloadPhase{}, fmt.Errorf("serve: unknown workload phase kind %q", p.Kind)
	}
}

// load bounds what the phase schedules for one trial starting at n agents
// over a run horizon of horizon interactions: its event count and the most
// agents it can add. Poisson processes count their expected arrivals. The
// arithmetic is in float64 so absurd inputs saturate instead of wrapping.
func (p PhaseSpec) load(n int, horizon uint64) (events, joins float64) {
	window := func() float64 {
		end := p.End
		if end == 0 || end > horizon {
			end = horizon
		}
		if p.Start >= end {
			return 0
		}
		return float64(end - p.Start)
	}
	switch p.Kind {
	case "join":
		return 1, 1
	case "replacement-churn":
		arrivals := math.Max(p.Rate, 0) * window() / float64(max(n, 1))
		return 2 * arrivals, 0
	case "join-leave-churn":
		arrivals := math.Max(p.Rate, 0) * window() / float64(max(n, 1))
		return arrivals, arrivals * math.Min(math.Max(p.JoinFrac, 0), 1)
	case "churn-bursts":
		if p.Every == 0 {
			return 0, 0
		}
		bursts := math.Ceil(window() / float64(p.Every))
		j, l := float64(max(p.Joins, 0)), float64(max(p.Leaves, 0))
		return bursts * (j + l), bursts * j
	case "population-step":
		return math.Abs(float64(p.Delta)), math.Max(float64(p.Delta), 0)
	default: // transient-burst, reinjection, leave
		return 1, 0
	}
}

// CellSpec is one fully resolved cell of a GridSpec: every axis value made
// explicit, protocol, backend and clock resolved by sspp.Resolve — the
// engine's own resolver, so "auto" names the backend that will actually
// run — and topology names canonicalized. The resolved form is what gets
// content-addressed (hash.go): two requests that mean the same cell always
// hash to the same address, however they spelled their selectors.
type CellSpec struct {
	Protocol  string     `json:"protocol"`
	Backend   string     `json:"backend"`
	Topology  string     `json:"topology"`
	Clock     string     `json:"clock"`
	Point     sspp.Point `json:"point"`
	Adversary string     `json:"adversary,omitempty"`
	Seeds     int        `json:"seeds"`
	BaseSeed  uint64     `json:"base_seed"`

	MaxInteractions uint64      `json:"max_interactions,omitempty"`
	Confirm         uint64      `json:"confirm,omitempty"`
	TransientK      int         `json:"transient_k,omitempty"`
	Tau             int32       `json:"tau,omitempty"`
	SyntheticCoins  bool        `json:"synthetic_coins,omitempty"`
	Workload        []PhaseSpec `json:"workload,omitempty"`
}

// Cells decomposes the grid into resolved cell specs, in declaration order
// (protocols outermost, then backends, topologies, clocks, points,
// adversaries — the Ensemble aggregation order with the backend axis
// added). Resolution errors (unknown protocol, backend or clock, malformed
// topology) fail the whole grid; whether a resolved combination is legal is
// decided when each cell compiles to a one-cell Ensemble.
func (g *GridSpec) Cells() ([]CellSpec, error) {
	if len(g.Points) == 0 {
		return nil, fmt.Errorf("serve: grid spec has no points")
	}
	if g.Seeds < 0 {
		return nil, fmt.Errorf("serve: grid spec has negative seed count %d", g.Seeds)
	}
	seeds := g.Seeds
	if seeds == 0 {
		seeds = 5
	}
	orDefault := func(axis []string) []string {
		if len(axis) == 0 {
			return []string{""}
		}
		return axis
	}
	protos, backends, topos := orDefault(g.Protocols), orDefault(g.Backends), orDefault(g.Topologies)
	clocks, advs := orDefault(g.Clocks), orDefault(g.Adversaries)
	var out []CellSpec
	for _, proto := range protos {
		for _, backend := range backends {
			for _, topo := range topos {
				top, err := sspp.ParseTopology(topo)
				if err != nil {
					return nil, err
				}
				for _, clock := range clocks {
					for _, pt := range g.Points {
						cfg, err := sspp.Resolve(sspp.Config{Protocol: proto, Backend: backend, Clock: clock, N: pt.N})
						if err != nil {
							return nil, err
						}
						for _, adv := range advs {
							out = append(out, CellSpec{
								Protocol:        cfg.Protocol,
								Backend:         cfg.Backend,
								Topology:        top.Name(),
								Clock:           cfg.Clock,
								Point:           pt,
								Adversary:       adv,
								Seeds:           seeds,
								BaseSeed:        g.BaseSeed,
								MaxInteractions: g.MaxInteractions,
								Confirm:         g.Confirm,
								TransientK:      g.TransientK,
								Tau:             g.Tau,
								SyntheticCoins:  g.SyntheticCoins,
								Workload:        g.Workload,
							})
						}
					}
				}
			}
		}
	}
	return out, nil
}

// ensemble compiles the cell back into a validated one-cell Ensemble with
// every axis explicit, so the computed sspp.Cell is stamped with its
// protocol, topology and clock names — cached cell bytes must be
// self-describing, not dependent on which axes the submitting grid happened
// to cross. The cell's seeds run sequentially (Workers(1)): the service
// parallelizes across cells on its own bounded pool, and nesting a second
// pool inside each cell would oversubscribe it. Results are byte-identical
// either way — that is the Ensemble layer's worker-count contract. opts
// follow Workers(1).
func (c *CellSpec) ensemble(opts ...sspp.EnsembleOption) (*sspp.Ensemble, error) {
	top, err := sspp.ParseTopology(c.Topology)
	if err != nil {
		return nil, err
	}
	g := sspp.Grid{
		Protocols:       []string{c.Protocol},
		Topologies:      []sspp.Topology{top},
		Clocks:          []string{c.Clock},
		Points:          []sspp.Point{c.Point},
		Seeds:           c.Seeds,
		BaseSeed:        c.BaseSeed,
		MaxInteractions: c.MaxInteractions,
		Confirm:         c.Confirm,
		TransientK:      c.TransientK,
		Tau:             c.Tau,
		SyntheticCoins:  c.SyntheticCoins,
		Backend:         c.Backend,
	}
	if c.Adversary != "" {
		g.Adversaries = []sspp.Adversary{sspp.Adversary(c.Adversary)}
	}
	if len(c.Workload) > 0 {
		phases := make([]sspp.WorkloadPhase, len(c.Workload))
		for i, p := range c.Workload {
			if phases[i], err = p.compile(); err != nil {
				return nil, err
			}
		}
		g.Workload = sspp.NewWorkload(phases...)
	}
	return sspp.NewEnsemble(g, append([]sspp.EnsembleOption{sspp.Workers(1)}, opts...)...)
}

// observationInert reports whether Observe checkpoints can be attached to
// this cell's trials without perturbing their results: agent backend under
// the discrete clock (see sspp.ObserveTrials). Everywhere else the stepping
// loop consumes randomness in chunk-shaped draws whose boundaries the
// observation cadence would move.
func (c *CellSpec) observationInert() bool {
	return c.Backend == sspp.BackendAgent && c.Clock == sspp.ClockDiscrete
}
