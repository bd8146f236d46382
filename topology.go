// topology.go exposes the interaction-topology layer of the public API. The
// paper's model (§1.1) runs on the complete interaction graph — every
// ordered pair of distinct agents may interact — but self-stabilizing
// leader election is topology-sensitive (the ring changes both achievable
// time and protocol design, arXiv:2009.10926), so Config.Topology lets
// every protocol run on an arbitrary directed interaction graph: the
// scheduler then samples uniformly from the graph's edge set instead of
// from [n]². The complete topology (the zero value) keeps the exact
// historical code path — the plain uniform scheduler, zero per-interaction
// overhead, bit-identical schedules — so existing configurations are
// untouched.
//
// Non-complete topologies compose with everything agent-level: run options,
// recordings (stored as edge indices), Ensemble grids (Grid.Topologies),
// adversarial starts and transient faults. The species backend is the one
// exception: it samples state pairs from counts, so agent adjacency does
// not exist there and combining it with a non-complete topology fails fast
// (see the capability table, DESIGN.md §9).

package sspp

import (
	"fmt"
	"strconv"
	"strings"

	"sspp/internal/graph"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// topoSeedSalt decorrelates the topology-generation stream from the
// protocol seed, so the random-graph draw and the protocol's internal
// randomness never share a stream.
const topoSeedSalt = 0x7071_6C6F_9E37_79B9

// Topology names an interaction-graph family for Config.Topology. The zero
// value is the complete graph of the paper's model; the other families are
// built per population by the constructors below (Ring, Torus2D,
// RandomRegular, ErdosRenyi, NewTopology). Random families are
// deterministic per (n, seed): a System draws its graph from Config.Seed,
// so a run is reproducible from its Config alone.
type Topology struct {
	name string
	// build materializes the graph for n agents; nil marks the complete
	// topology, which is never materialized (the uniform scheduler IS it).
	build func(n int, seed uint64) (*graph.Graph, error)
}

// Complete returns the complete-graph topology of the paper's model: every
// ordered pair of distinct agents is an interaction-graph edge. This is the
// zero value of Topology, and the default.
func Complete() Topology { return Topology{} }

// Ring returns the bidirectional ring topology: agent i interacts with
// i±1 mod n only. The topology of the ring leader-election literature
// (arXiv:2009.10926).
func Ring() Topology {
	return Topology{name: "ring", build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.Ring(n)
	}}
}

// Torus2D returns the two-dimensional torus topology over the most nearly
// square w×h factorization of n (a prime n degenerates to the ring).
func Torus2D() Topology {
	return Topology{name: "torus", build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.Torus2D(n)
	}}
}

// RandomRegular returns a connected random d-regular topology (the union of
// ⌊d/2⌋ uniform Hamiltonian cycles, plus a perfect matching when d is odd —
// which then requires an even population). The graph is drawn
// deterministically from the system's seed.
func RandomRegular(d int) Topology {
	return Topology{name: fmt.Sprintf("random-regular(%d)", d),
		build: func(n int, seed uint64) (*graph.Graph, error) {
			return graph.RandomRegular(n, d, seed)
		}}
}

// ErdosRenyi returns the G(n, p) topology: every unordered agent pair is
// adjacent independently with probability p, drawn deterministically from
// the system's seed. Unlike the other families the result is not guaranteed
// connected — below the ln(n)/n threshold it usually is not, and no
// protocol can stabilize across components; check System.TopologyConnected
// before spending a budget on one.
func ErdosRenyi(p float64) Topology {
	return Topology{name: fmt.Sprintf("erdos-renyi(%g)", p),
		build: func(n int, seed uint64) (*graph.Graph, error) {
			return graph.ErdosRenyi(n, p, seed)
		}}
}

// NewTopology builds a user topology from an explicit edge generator: edges
// returns the directed edge list for a population of n agents (at least one
// edge, endpoints in [0, n), no self-loops; an edge (a, b) lets a initiate
// with b responding — emit both orientations for symmetric adjacency). The
// generator must be deterministic in (n, seed) for runs to be reproducible.
func NewTopology(name string, edges func(n int, seed uint64) [][2]int) Topology {
	if name == "" {
		name = "custom"
	}
	return Topology{name: name, build: func(n int, seed uint64) (*graph.Graph, error) {
		if edges == nil {
			return nil, fmt.Errorf("sspp: topology %q has a nil edge generator", name)
		}
		return graph.FromEdges(name, n, edges(n, seed))
	}}
}

// Name returns the topology's family name ("complete" for the zero value).
func (t Topology) Name() string {
	if t.build == nil {
		return "complete"
	}
	return t.name
}

// ParseTopology maps a topology name back to a Topology: the inverse of
// Name for every built-in family, so topology names round-trip through JSON
// exports, grid specs (cmd/sppd) and command-line flags. Both parameter
// spellings are accepted — the Name() form ("random-regular(8)",
// "erdos-renyi(0.1)") and the flag form cmd/benchtab historically used
// ("random-regular=8", "erdos-renyi=0.1"). "" parses as the complete graph.
// User topologies built with NewTopology carry arbitrary names and cannot be
// reconstructed from one.
func ParseTopology(name string) (Topology, error) {
	parseArg := func(family string) (string, bool) {
		if rest, ok := strings.CutPrefix(name, family+"("); ok {
			if arg, ok := strings.CutSuffix(rest, ")"); ok {
				return arg, true
			}
			return "", false
		}
		return strings.CutPrefix(name, family+"=")
	}
	switch {
	case name == "" || name == "complete":
		return Complete(), nil
	case name == "ring":
		return Ring(), nil
	case name == "torus":
		return Torus2D(), nil
	case strings.HasPrefix(name, "random-regular"):
		arg, ok := parseArg("random-regular")
		if !ok {
			return Topology{}, fmt.Errorf("sspp: malformed random-regular topology %q (want random-regular(D))", name)
		}
		d, err := strconv.Atoi(arg)
		if err != nil {
			return Topology{}, fmt.Errorf("sspp: bad random-regular degree in %q: %v", name, err)
		}
		return RandomRegular(d), nil
	case strings.HasPrefix(name, "erdos-renyi"):
		arg, ok := parseArg("erdos-renyi")
		if !ok {
			return Topology{}, fmt.Errorf("sspp: malformed erdos-renyi topology %q (want erdos-renyi(P))", name)
		}
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return Topology{}, fmt.Errorf("sspp: bad erdos-renyi density in %q: %v", name, err)
		}
		return ErdosRenyi(p), nil
	default:
		return Topology{}, fmt.Errorf("sspp: unknown topology %q (want complete, ring, torus, random-regular(D) or erdos-renyi(P))", name)
	}
}

// IsComplete reports whether the topology is the complete graph — the
// paper's model, run on the zero-overhead uniform-scheduler fast path.
func (t Topology) IsComplete() bool { return t.build == nil }

// String returns the topology's name.
func (t Topology) String() string { return t.Name() }

// materialize builds the interaction graph for a population of n agents,
// deriving the graph seed from the protocol seed. Returns (nil, nil) for
// the complete topology. Errors name the topology and leave the "sspp:"
// prefix to the caller, which NewEnsemble follows with the failing point.
func (t Topology) materialize(n int, seed uint64) (*graph.Graph, error) {
	if t.build == nil {
		return nil, nil
	}
	g, err := t.build(n, seed^topoSeedSalt)
	if err != nil {
		return nil, fmt.Errorf("topology %q: %w", t.Name(), err)
	}
	return g, nil
}

// Topology returns the system's interaction topology name and, for
// non-complete topologies, the materialized graph's edge count (0 for
// complete — the complete graph is never materialized).
func (s *System) Topology() (name string, edges int) {
	if s.graph == nil {
		return "complete", 0
	}
	return s.cfg.Topology.Name(), s.graph.M()
}

// Sampler returns a Scheduler dealing this system's interaction topology
// from the given seed: the uniform scheduler of the paper's model for the
// complete topology (identical to NewUniform(seed)), or a sampler over the
// system's materialized edge set otherwise. Use it to drive Run via
// WithScheduler when the schedule must be captured (NewRecorder) or shared
// across runs; Run's SchedulerSeed path constructs exactly this scheduler
// internally.
func (s *System) Sampler(seed uint64) Scheduler {
	if s.graph == nil {
		return rng.New(seed)
	}
	return sim.NewEdgeSampler(s.graph, rng.New(seed))
}

// TopologyConnected reports whether the system's materialized interaction
// graph is connected (always true for the complete topology). A protocol
// cannot stabilize globally on a disconnected graph — check this before
// burning a budget on an ErdosRenyi topology below the ln(n)/n threshold.
func (s *System) TopologyConnected() bool {
	return s.graph == nil || s.graph.Connected()
}

// bind is the scheduler check of Run and StepSched: a population with a
// pair to deal, topologize, then the count-based backend's rule that only a
// uniform stream seeds its draws. Under a continuous clock a scheduler that
// times its own pairs then owns the system's time while it deals
// (sim.BindClock).
func (s *System) bind(sched Scheduler) (Scheduler, error) {
	if n := s.N(); n < 2 {
		// A workload join that fails after its paired leave can leave a
		// population of one, which has no pair to deal.
		return nil, fmt.Errorf("sspp: a population of size %d is too small to schedule a pair", n)
	}
	sched, err := s.topologize(sched)
	if err == nil {
		_, err = sim.CountSource(s.proto, sched)
	}
	if err == nil && s.cfg.Clock != ClockDiscrete {
		s.clock = sim.BindClock(s.timeline(), sched)
	}
	return sched, err
}

// topologize adapts a scheduler to the system's topology. Complete-topology
// systems return the scheduler as is — the historical fast path, bit for
// bit. On a non-complete topology a uniform PRNG stream is re-bound as the
// edge-index source (the pairs it would deal from [n]² are not graph
// edges), and topology-aware schedules — an EdgeSampler from Sampler, a
// Recorder around one, an edge-indexed replay — pass through unchanged.
// Anything else deals pairs from [n]², which would silently simulate the
// complete graph under a topology label, so it is an error — mirroring the
// species backend's scheduler contract.
func (s *System) topologize(sched Scheduler) (Scheduler, error) {
	if s.graph == nil {
		return sched, nil
	}
	if src, ok := sched.(*rng.PRNG); ok {
		if s.cfg.Clock != ClockDiscrete {
			// Under the continuous clocks the scheduler carries the event
			// clock itself: the next-reaction scheduler deals the same
			// uniform-edge jump chain in distribution and timestamps every
			// deal, starting from the parallel time already accrued.
			return sim.NewNextReaction(s.graph, src, s.ParallelTime()), nil
		}
		return sim.NewEdgeSampler(s.graph, src), nil
	}
	if gs, ok := sched.(sim.GraphScheduler); ok && gs.Graph() != nil {
		// The schedule must belong to THIS graph: a recording from another
		// population or family would deal out-of-range or off-graph pairs
		// under this system's topology label.
		if !gs.Graph().Same(s.graph) {
			return nil, fmt.Errorf("sspp: scheduler %T samples a different interaction graph "+
				"(%q over %d agents, %d edges) than this system's %q (%d agents, %d edges)",
				sched, gs.Graph().Name(), gs.Graph().N(), gs.Graph().M(),
				s.cfg.Topology.Name(), s.graph.N(), s.graph.M())
		}
		return sched, nil
	}
	return nil, fmt.Errorf("sspp: scheduler %T deals pairs from [n]², not from the %q edge set — "+
		"use SchedulerSeed, System.Sampler, or a recording captured from one", sched, s.cfg.Topology.Name())
}
