// Package sspp is the public interface to this repository's reproduction of
// "A Space-Time Trade-off for Fast Self-Stabilizing Leader Election in
// Population Protocols" (Austin, Berenbrink, Friedetzky, Götte, Hintze;
// PODC 2025, arXiv:2505.01210).
//
// The package wraps the full ElectLeader_r implementation (internal/core and
// its substrates) — and the related-work baselines that anchor the paper's
// trade-off curve — behind four composable concepts:
//
//   - System — one population built from a Config. Runs are declared with
//     composable RunOption values: stop conditions are first-class
//     predicates (SafeSet, CorrectOutput, or user-supplied ConditionFunc),
//     and budgets, confirmation windows, observation hooks, mid-run
//     transient faults, and cancellation all compose freely.
//   - Protocol registry — Config.Protocol selects which protocol the System
//     runs: the paper's ElectLeader_r (the default) or one of the Section 2
//     baselines (ciw, namerank, loosele, fastle — see Protocols()). Every
//     protocol runs through the same engine; optional capabilities (rank
//     outputs, safe sets, adversarial injection, state snapshots) are
//     detected per protocol, and SafeSet degrades to confirmed correct
//     output for protocols without a safe set. NewCustom runs user-supplied
//     protocols on the identical machinery.
//   - Scheduler — the source of interaction pairs. NewUniform is the
//     paper's model (§1.1: every ordered pair equally likely); NewBatch is
//     a high-throughput drop-in with the identical schedule, NewZipf and
//     NewWeighted model non-uniform contact rates, and NewRecorder /
//     Recording.Replay capture and re-run exact schedules.
//   - Topology — the interaction graph pairs are drawn from.
//     Config.Topology defaults to the complete graph of the paper's model
//     (zero overhead, bit-identical to the pre-topology engine); Ring,
//     Torus2D, RandomRegular, ErdosRenyi and NewTopology restrict the
//     scheduler to a graph's edge set, the graph-restricted population
//     model of the ring leader-election literature.
//   - Ensemble — a declarative grid of protocols × Topologies × (n, r)
//     Points × adversary classes × seed counts, executed across GOMAXPROCS
//     workers with deterministic aggregation: results (and their JSON
//     export, plus the pivoted CompareResult) are byte-identical for every
//     worker count.
//
// A minimal session:
//
//	sys, err := sspp.New(sspp.Config{N: 64, R: 8, Seed: 1})
//	if err != nil { ... }
//	_ = sys.Inject(sspp.AdversaryTwoLeaders, 7)
//	res := sys.Run(
//		sspp.Until(sspp.SafeSet), // the Lemma 6.1 stop condition
//		sspp.SchedulerSeed(2),
//	)
//	if res.Stabilized {
//		leader, _ := sys.Leader()
//		fmt.Println("leader:", leader, "after", res.Interactions, "interactions")
//	}
//
// And a cross-protocol family of runs — the comparison shape the paper's
// trade-off (and its related work) actually calls for:
//
//	ens, err := sspp.NewEnsemble(sspp.Grid{
//		Protocols:   []string{sspp.ProtocolElectLeader, sspp.ProtocolCIW},
//		Points:      []sspp.Point{{N: 32, R: 8}, {N: 64, R: 16}},
//		Adversaries: []sspp.Adversary{sspp.AdversaryTwoLeaders},
//		Seeds:       10,
//	})
//	if err != nil { ... }
//	out := ens.Run() // parallel; byte-identical at any worker count
//	_ = out.Compare().WriteJSON(os.Stdout)
//
// Everything is deterministic given the seeds. See DESIGN.md §"Public API"
// and §"Protocol registry" for the mapping from these types to the paper's
// concepts, and EXPERIMENTS.md for the reproduction results; cmd/benchtab
// regenerates every table.
package sspp

import (
	"fmt"
	"math"

	"sspp/internal/core"
	"sspp/internal/graph"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// Config configures a System.
type Config struct {
	// Protocol selects the protocol from the registry ("" means
	// "electleader", the paper's ElectLeader_r; see Protocols() for the
	// catalogue).
	Protocol string
	// N is the population size (n ≥ 2).
	N int
	// R is the space-time trade-off parameter of ElectLeader_r
	// (1 ≤ r ≤ n/2): larger r is faster and uses more states (Theorem 1.1).
	// Ignored by the baseline protocols.
	R int
	// Seed seeds the protocol-internal randomness. Scheduler randomness is
	// separate: see SchedulerSeed and WithScheduler.
	Seed uint64
	// SyntheticCoins runs ElectLeader_r fully derandomized (Appendix B).
	// Only supported by the "electleader" protocol.
	SyntheticCoins bool
	// Tau is the timeout parameter of the "loosele" protocol: 0 selects
	// 4·ln n (at least 2), and 1 is rejected, since with it no unique
	// leader is ever reached. Every τ ≥ 2 is accepted, but a small τ at a
	// small n may never confirm a leader in the default confirm window: at
	// τ = 2 and n = 8 a unique leader was present in only 117 of 10⁵
	// interactions, never long enough to hold for the window. Ignored by
	// every other protocol.
	Tau int32
	// Backend selects the simulation backend: BackendAgent ("" or "agent",
	// one struct per agent — the default), BackendSpecies ("species", the
	// population as state counts; requires the compactable capability), or
	// BackendAuto ("auto", species for compactable protocols at populations
	// of SpeciesAutoThreshold or more).
	Backend string
	// Topology selects the interaction graph the scheduler samples pairs
	// from. The zero value is the complete graph of the paper's model (§1.1)
	// — the historical behaviour, bit for bit; Ring(), Torus2D(),
	// RandomRegular(d), ErdosRenyi(p) and NewTopology restrict interactions
	// to a graph's edge set. Random families draw their graph
	// deterministically from Seed. Non-complete topologies require the agent
	// backend (the species backend has no agent adjacency — see DESIGN.md §9).
	Topology Topology
	// Clock selects the simulation clock: ClockDiscrete ("" or "discrete",
	// the historical interaction-counting clock — bit-identical schedules and
	// results), ClockContinuous ("continuous", the continuous-time population
	// model: interactions form a Poisson process of rate n/2 per unit
	// parallel time, with τ-leaped bulk stepping on the species backend for
	// deterministic models), or ClockContinuousExact ("continuous-exact",
	// the continuous clock without τ-leaping — the exact jump chain equipped
	// with native event times). See DESIGN.md §12.
	Clock string
}

// System is a running population: one protocol instance plus the engine
// state needed to run it. All predicates and mutators dispatch on the
// protocol's optional capabilities and degrade gracefully — e.g. Ranks
// returns nil for protocols without rank outputs, and Inject reports an
// error for protocols without adversarial-injection support.
type System struct {
	plan
	proto  sim.Protocol
	events *sim.Events
	steps  uint64    // interactions the engine has dealt (see Interactions)
	clock  sim.Clock // the one owner of parallel time (see ParallelTime)
}

// plan is a Config that has passed every construction-time check (see
// newPlan): the resolved Config, its registry entry and its interaction graph.
type plan struct {
	cfg   Config        // resolved (see Resolve): concrete Protocol ("custom" for NewCustom), Backend and Clock
	spec  *protocolSpec // nil for NewCustom and NewSpecies systems
	graph *graph.Graph  // materialized interaction graph; nil for the complete topology
}

// The simulation clocks accepted by Config.Clock.
const (
	// ClockDiscrete counts interactions; parallel time is derived as
	// interactions divided by the live population size. "" selects it,
	// keeping pre-clock configurations bit-identical.
	ClockDiscrete = "discrete"
	// ClockContinuous runs the continuous-time population model natively:
	// exponential holding times at rate n/2, and — on the species backend
	// with a deterministic model — τ-leaped bulk stepping that fires whole
	// reaction bundles per draw.
	ClockContinuous = "continuous"
	// ClockContinuousExact is the continuous clock without τ-leaping: the
	// exact jump chain of the discrete scheduler equipped with native event
	// times (the reference arm the leaping gate compares against).
	ClockContinuousExact = "continuous-exact"
)

// clockSeedSalt decorrelates the holding-time stream from the protocol seed
// (and from the topology and species salts), so equipping a run with the
// continuous clock never perturbs its jump chain.
const clockSeedSalt = 0x636C_6F63_6BD1_B54A

// Resolve returns cfg with its selectors made concrete: Protocol ("" →
// ProtocolElectLeader), Backend ("" → BackendAgent; BackendAuto →
// BackendSpecies for compactable protocols at N ≥ SpeciesAutoThreshold,
// BackendAgent otherwise) and Clock ("" → ClockDiscrete). It fails only on
// unknown names. It does not judge legality: a species resolution with a
// non-complete topology, synthetic coins or a protocol without a species
// form is returned as is, and New and NewEnsemble reject it (admit.go).
// Configs that resolve alike describe the same computation, valid or not,
// which is why cmd/sppd content-addresses the resolved form.
func Resolve(cfg Config) (Config, error) {
	cfg, _, err := resolve(cfg)
	return cfg, err
}

// resolve is Resolve, also returning the protocol's registry entry.
func resolve(cfg Config) (Config, *protocolSpec, error) {
	spec, err := specFor(cfg.Protocol)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Protocol = spec.name
	switch cfg.Backend {
	case "":
		cfg.Backend = BackendAgent
	case BackendAgent, BackendSpecies:
	case BackendAuto:
		cfg.Backend = BackendAgent
		if _, ok := sim.AsCompactable(spec.zero); ok && cfg.N >= SpeciesAutoThreshold {
			cfg.Backend = BackendSpecies
		}
	default:
		return cfg, nil, fmt.Errorf("sspp: unknown backend %q (want %q, %q or %q)",
			cfg.Backend, BackendAgent, BackendSpecies, BackendAuto)
	}
	switch cfg.Clock {
	case "":
		cfg.Clock = ClockDiscrete
	case ClockDiscrete, ClockContinuous, ClockContinuousExact:
	default:
		return cfg, nil, fmt.Errorf("sspp: unknown clock %q (want %q, %q or %q)",
			cfg.Clock, ClockDiscrete, ClockContinuous, ClockContinuousExact)
	}
	return cfg, spec, nil
}

// New builds a System running the protocol named by cfg.Protocol (default:
// the paper's ElectLeader_r). The initial configuration is the protocol's
// canonical start — for ElectLeader_r the clean post-awakening one (all
// agents fresh rankers); use Inject for adversarial starts.
func New(cfg Config) (*System, error) {
	p, err := newPlan(cfg, use{})
	if err != nil {
		return nil, err
	}
	return p.build()
}

// newPlan is the one construction-time check of a Config: it resolves cfg,
// validates its parameters, admits it for u and materializes its topology at
// cfg.Seed. A grid plan (u.grid) also rejects a disconnected graph draw, and
// its rejections name the trial's coordinate in front of New's text.
func newPlan(cfg Config, u use) (plan, error) {
	cfg, spec, err := resolve(cfg)
	if err != nil {
		return plan{}, err
	}
	// A grid plan names the coordinate a rejection belongs to.
	reject := func(coord string, err error) (plan, error) {
		if u.grid {
			return plan{}, fmt.Errorf("sspp: ensemble point %s: %w", coord, err)
		}
		return plan{}, fmt.Errorf("sspp: %w", err)
	}
	if err := spec.validate(cfg); err != nil {
		return reject(fmt.Sprintf("(n=%d, r=%d) for protocol %q", cfg.N, cfg.R, spec.name), err)
	}
	if err := admit(cfg, spec.zero, u); err != nil {
		return plan{}, err
	}
	g, err := cfg.Topology.materialize(cfg.N, cfg.Seed)
	if err == nil && u.grid && g != nil && !g.Connected() {
		// Stabilization is global: on a disconnected graph every trial would
		// burn its full budget and be aggregated as a failure to stabilize.
		err = fmt.Errorf("topology %q draws a disconnected graph — no protocol can stabilize across "+
			"components (raise the density, or probe single systems via System.TopologyConnected)", cfg.Topology.Name())
	}
	if err != nil {
		return reject(fmt.Sprintf("(n=%d), seed %d", cfg.N, u.seed), err)
	}
	return plan{cfg: cfg, spec: spec, graph: g}, nil
}

// build constructs the System a plan describes.
func (pl plan) build() (*System, error) {
	cfg, spec := pl.cfg, pl.spec
	onSpecies := cfg.Backend == BackendSpecies
	ev := sim.NewEvents()
	var p sim.Protocol
	var err error
	if onSpecies && spec.compactClean != nil {
		// Clean-start fast path: build the species form directly instead of
		// constructing the agent instance only to compact it away (for
		// ElectLeader_r that instance costs O(n·r) before the first
		// interaction). Bit-for-bit equivalent to the compactProto path —
		// pinned by TestCompactCleanMirrorsCompact and the system-level
		// equivalence test in backend_test.go.
		var model sim.CompactModel
		if model, err = spec.compactClean(cfg, ev); err == nil {
			p, err = speciesProto(model, cfg.Seed)
		}
	} else if p, err = spec.build(cfg, ev); err == nil && onSpecies {
		p, err = compactProto(p, cfg.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("sspp: %w", err)
	}
	sys := &System{plan: pl, proto: p, events: ev, clock: sim.NewDiscreteClock(cfg.N)}
	if cfg.Clock != ClockDiscrete {
		timeSrc := rng.New(cfg.Seed ^ clockSeedSalt)
		if cs, ok := sim.AsContinuousStepper(p); ok {
			cs.StartContinuous(timeSrc, cfg.Clock == ClockContinuous)
			sys.clock = sim.NativeClock{ContinuousStepper: cs}
		} else if pl.graph == nil {
			sys.clock = sim.NewTimeKeeper(timeSrc, cfg.N)
		}
		// On a non-complete topology a bound next-reaction scheduler owns the
		// time (see bind); the discrete clock keeps it for untimed ones.
	}
	return sys, nil
}

// ProtocolName returns the registry name of the system's protocol
// ("custom" for NewCustom systems).
func (s *System) ProtocolName() string { return s.cfg.Protocol }

// Capabilities returns the optional engine capabilities the system's
// protocol implements (the Capability* constants). Under the species
// backend this reflects the running count-based backend, not the agent
// form the protocol was compacted from.
func (s *System) Capabilities() []string { return capabilitiesOf(s.proto) }

// Backend returns the resolved simulation backend the system runs on
// (BackendAgent or BackendSpecies).
func (s *System) Backend() string { return s.cfg.Backend }

// N returns the population size.
func (s *System) N() int { return s.proto.N() }

// R returns the trade-off parameter (0 for protocols without one).
func (s *System) R() int {
	if rr, ok := s.proto.(interface{ R() int }); ok {
		return rr.R()
	}
	return 0
}

// Interactions returns the number of interactions executed so far.
func (s *System) Interactions() uint64 { return s.steps }

// ParallelTime returns the parallel time elapsed so far on the system's one
// clock: interactions over the live population size under the discrete
// clock, the native event time of the Poisson process under the continuous
// ones (DESIGN.md §12 lists which component keeps it).
func (s *System) ParallelTime() float64 { return s.timeline().Time() }

// timeline returns the clock: the discrete one for a System built by hand.
func (s *System) timeline() sim.Clock {
	if s.clock == nil {
		s.clock = sim.NewDiscreteClock(s.N())
	}
	return s.clock
}

// step deals k interactions from sched and advances the clock past them.
func (s *System) step(sched Scheduler, k uint64) {
	sim.Steps(s.proto, sched, k)
	s.steps += k
	s.timeline().AdvanceMany(k)
}

// DefaultBudget returns the default interaction budget: a generous
// multiple of the protocol's expected stabilization shape — for
// ElectLeader_r the Theorem 1.1 bound (n²/r)·log n, for CIW the Θ(n²)
// silent-ranking time, for the O(n·log n) baselines and custom protocols a
// c·n·ln(n+1) envelope.
func (s *System) DefaultBudget() uint64 {
	if s.spec != nil {
		return s.spec.budget(s.cfg)
	}
	n := float64(s.N())
	return uint64(1000 * n * math.Log(n+1))
}

// Leader returns the index of the unique leader, or ok = false when the
// configuration does not currently have exactly one leader. O(1) for
// ElectLeader_r (the core tracks the leader incrementally); a scan for the
// baselines.
func (s *System) Leader() (int, bool) {
	if li, ok := sim.AsLeaderIndexer(s.proto); ok {
		return li.LeaderIndex()
	}
	return -1, false
}

// Leaders returns the number of agents currently outputting "leader".
func (s *System) Leaders() int {
	if lc, ok := s.proto.(interface{ Leaders() int }); ok {
		return lc.Leaders()
	}
	if rk, ok := sim.AsRanker(s.proto); ok {
		leaders := 0
		for i := 0; i < s.N(); i++ {
			if rk.RankOutput(i) == 1 {
				leaders++
			}
		}
		return leaders
	}
	return 0
}

// Ranks returns every agent's current rank output, or nil for protocols
// without the ranker capability.
func (s *System) Ranks() []int {
	rk, ok := sim.AsRanker(s.proto)
	if !ok {
		return nil
	}
	out := make([]int, s.N())
	for i := range out {
		out[i] = int(rk.RankOutput(i))
	}
	return out
}

// Correct reports whether the configuration currently has correct output
// (exactly one leader).
func (s *System) Correct() bool { return s.proto.Correct() }

// CorrectRanking reports whether the rank outputs form a permutation
// (false for protocols without a ranking output). Count-based backends
// check the permutation over state counts even though per-agent rank
// outputs (Ranks) do not exist for them.
func (s *System) CorrectRanking() bool {
	// The structural probe covers every full sim.Ranker too (CorrectRanking
	// is part of that method set), so one branch dispatches both.
	if rc, ok := s.proto.(interface{ CorrectRanking() bool }); ok {
		return rc.CorrectRanking()
	}
	return false
}

// InSafeSet reports whether the configuration is in (the checkable core of)
// the protocol's safe set — for ElectLeader_r the safe set of Lemma 6.1.
// Protocols without the safe-set capability always report false; runs
// against Until(SafeSet) fall back to confirmed correct output for them.
func (s *System) InSafeSet() bool {
	if ss, ok := sim.AsSafeSetter(s.proto); ok {
		return ss.InSafeSet()
	}
	return false
}

// Roles returns the number of agents that are resetting, ranking, and
// verifying (all zero for protocols without ElectLeader_r's role
// structure).
func (s *System) Roles() (resetting, ranking, verifying int) {
	if r, ok := s.proto.(interface{ Roles() (int, int, int) }); ok {
		return r.Roles()
	}
	return 0, 0, 0
}

// EventCount returns how often the named event occurred: one of
// core.awaken, core.became_verifier, core.hard_reset, core.infected,
// verify.hard_reset, verify.soft_reset or verify.top. An unknown name counts
// zero, and baseline protocols emit no events.
func (s *System) EventCount(name string) uint64 { return s.events.CountNamed(name) }

// Events returns all recorded event names with counts, rendered compactly.
func (s *System) Events() string { return s.events.String() }

// HardResets returns the number of full resets triggered so far.
func (s *System) HardResets() uint64 { return s.events.Count(sim.EvHardReset) }

// StateBits returns log₂ of the per-agent state-space size of ElectLeader_r
// for the given parameters (the Figure 1 formula) — 2^O(r²·log n).
func StateBits(n, r int) float64 {
	return core.ElectLeaderBits(float64(n), float64(r))
}

// Snapshot is a point-in-time view of the population used by the Observe
// run option and the tracing tools built on it. Fields a protocol cannot
// fill (e.g. role counts outside ElectLeader_r) stay zero.
type Snapshot struct {
	// Interactions is the total interactions executed so far.
	Interactions uint64
	// ParallelTime is the parallel time elapsed so far (see
	// System.ParallelTime for the clock semantics).
	ParallelTime float64
	// Resetting, Ranking, Verifying are the role counts.
	Resetting, Ranking, Verifying int
	// Leaders is the number of agents outputting "leader".
	Leaders int
	// HardResets, SoftResets, Tops are cumulative event counts.
	HardResets, SoftResets, Tops uint64
	// InSafeSet reports whether the configuration is in the safe set.
	InSafeSet bool
}

// Snapshot returns the current population composition. Protocols with the
// snapshotter capability fill the full role/event detail; the generic
// fallback reports the interaction count, leader count and safe-set flag.
func (s *System) Snapshot() Snapshot {
	ss := sim.Snapshot{Interactions: s.Interactions(), ParallelTime: s.ParallelTime()}
	if sn, ok := sim.AsSnapshotter(s.proto); ok {
		sn.SnapshotInto(&ss)
	} else {
		ss.Leaders = s.Leaders()
		ss.InSafeSet = s.InSafeSet()
	}
	return Snapshot(ss)
}
