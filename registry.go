// registry.go implements the public protocol registry: every protocol the
// repository carries — the paper's ElectLeader_r and the related-work
// baselines that anchor its trade-off curve — runs through the same engine
// (System.Run, schedulers, Ensemble grids). A protocol is selected by name
// via Config.Protocol; what the engine can do with it is governed by the
// optional capability interfaces of internal/sim (Ranker, SafeSetter,
// Injectable, Snapshotter), which the engine probes at the call sites.
// User-defined protocols plug into the identical machinery via NewCustom.

package sspp

import (
	"fmt"
	"math"
	"slices"

	"sspp/internal/adversary"
	"sspp/internal/baseline"
	"sspp/internal/coin"
	"sspp/internal/core"
	"sspp/internal/ranking"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// The registry protocol names accepted by Config.Protocol.
const (
	// ProtocolElectLeader is the paper's ElectLeader_r (Theorem 1.1):
	// self-stabilizing ranking in O((n²/r)·log n) interactions with
	// 2^O(r²·log n) states. The default.
	ProtocolElectLeader = "electleader"
	// ProtocolCIW is the n-state silent self-stabilizing ranking in the
	// style of Cai, Izumi, and Wada (§2): the state-optimal anchor with
	// Θ(n²) expected time.
	ProtocolCIW = "ciw"
	// ProtocolNameRank is the names-broadcast ranking of Appendix D / [16]
	// (cf. Burman et al.): time-optimal O(n·log n) interactions, O(n·log n)
	// bits per agent, not self-stabilizing.
	ProtocolNameRank = "namerank"
	// ProtocolLooseLE is a loosely-stabilizing leader election in the style
	// of Sudo et al.: fast convergence from any configuration, but the
	// leader is held only for a finite τ-controlled time.
	ProtocolLooseLE = "loosele"
	// ProtocolFastLE is FastLeaderElect (Appendix D.2, Lemma D.10): fast
	// non-self-stabilizing election from awakening starts.
	ProtocolFastLE = "fastle"
)

// Capability names reported by ProtocolInfo.Capabilities.
const (
	// CapabilityRanker: the protocol outputs a full ranking (Ranks works).
	CapabilityRanker = "ranker"
	// CapabilitySafeSet: the protocol has a checkable safe set, so
	// Until(SafeSet) measures the paper's stabilization notion directly.
	// Without it, SafeSet falls back to CorrectOutput + Confirm.
	CapabilitySafeSet = "safe-set"
	// CapabilityInjectable: adversarial starts (Inject) and transient
	// faults (InjectTransient, InjectTransientAt) are supported.
	CapabilityInjectable = "injectable"
	// CapabilitySnapshotter: Snapshot exports role and event detail beyond
	// the generic leader count.
	CapabilitySnapshotter = "snapshotter"
	// CapabilityCompactable: the protocol has a species form, so the
	// count-based species backend (Config.Backend) can run it at populations
	// far beyond one-struct-per-agent storage.
	CapabilityCompactable = "compactable"
	// CapabilityChurnable: agents may join and leave mid-run (workload churn
	// phases). Protocols whose ChurnBounds are equal support replacement
	// churn only: every leave must be paired with a join at the same instant.
	CapabilityChurnable = "churnable"
	// CapabilityContinuous: the protocol steps natively under the
	// continuous-time clock (ClockContinuous / ClockContinuousExact),
	// accruing parallel time from Poisson event times — and, for
	// deterministic species models, τ-leaped bulk stepping.
	CapabilityContinuous = "continuous-stepper"
)

// ProtocolInfo describes one registry protocol.
type ProtocolInfo struct {
	// Name is the Config.Protocol value selecting the protocol.
	Name string
	// Description is a one-line summary with the paper/related-work anchor.
	Description string
	// SelfStabilizing reports whether the protocol recovers from arbitrary
	// configurations (Theorem 1.1's notion; loose stabilization is false).
	SelfStabilizing bool
	// Capabilities lists the optional engine capabilities the protocol
	// implements (Capability* constants).
	Capabilities []string
}

// protocolSpec is one registry entry: constructor, validation and the
// default interaction budget for the protocol's expected running time.
type protocolSpec struct {
	name            string
	description     string
	selfStabilizing bool
	validate        func(cfg Config) error
	build           func(cfg Config, ev *sim.Events) (sim.Protocol, error)
	// compactClean, when non-nil, builds the protocol's species form directly
	// in its clean starting configuration, skipping the agent instance build
	// would construct (for ElectLeader_r: the O(n·r) fresh-ranker transient).
	// Species-backend Systems use it on clean builds; it must be bit-for-bit
	// equivalent to compacting a fresh build at the same Config.
	compactClean func(cfg Config, ev *sim.Events) (sim.CompactModel, error)
	budget       func(cfg Config) uint64
	// zero is a typed nil of the protocol's concrete type: capabilities are
	// a property of the type, so they are probed with type assertions on
	// this value without constructing an instance.
	zero sim.Protocol
}

// electProtocol adapts *core.Protocol to the Injectable and Churnable
// capabilities: the adversarial generators live in internal/adversary (which
// depends on core, so core cannot carry them itself), and churn bookkeeping
// needs mutable state (the vacant-slot stack). Every other capability is
// promoted from the embedded protocol.
type electProtocol struct {
	*core.Protocol
	// vacant holds slot indices whose agents have left and not yet been
	// replaced. ElectLeader_r supports replacement churn only (its detect
	// partition and constants are anchored at the build-time n), so the
	// workload validator guarantees every vacancy is filled by a join at the
	// same instant, before any interaction runs.
	vacant []int
}

// Inject rewrites the configuration according to the named adversary class.
func (e *electProtocol) Inject(class string, src *rng.PRNG) error {
	return adversary.Apply(e.Protocol, adversary.Class(class), src)
}

// InjectTransient corrupts k uniformly chosen agents in place.
func (e *electProtocol) InjectTransient(k int, src *rng.PRNG) []int {
	return adversary.Transient(e.Protocol, k, src)
}

// ChurnBounds pins the population to the build-time n: replacement churn
// only.
func (e *electProtocol) ChurnBounds() (minN, maxN int) {
	n := e.Protocol.N()
	return n, n
}

// Leave marks a uniformly drawn live slot vacant, redrawing until the draw
// misses the slots already vacated at this instant. The slot's state is
// replaced when the paired join fires; the protocol is anonymous, so a
// departed agent is indistinguishable from its slot awaiting
// re-initialization.
func (e *electProtocol) Leave(src *rng.PRNG) error {
	n := e.Protocol.N()
	if len(e.vacant) >= n-1 {
		return fmt.Errorf("sspp: electleader cannot vacate its last live slot")
	}
	for {
		if i := src.Intn(n); !slices.Contains(e.vacant, i) {
			e.vacant = append(e.vacant, i)
			return nil
		}
	}
}

// Join fills the most recent vacancy with a brand-new agent: a fresh ranker
// with fresh randomness (ReplaceAgent), then reshaped by the join class.
// Realizable classes: "" / clean-rankers (the canonical clean join),
// triggered (an agent arriving mid-reset), and random-garbage (an agent
// arriving with arbitrary memory).
func (e *electProtocol) Join(class string, src *rng.PRNG) error {
	if len(e.vacant) == 0 {
		return fmt.Errorf("sspp: electleader supports replacement churn only — pair each leave with a join at the same instant")
	}
	i := e.vacant[len(e.vacant)-1]
	e.vacant = e.vacant[:len(e.vacant)-1]
	e.Protocol.ReplaceAgent(i)
	switch adversary.Class(class) {
	case "", adversary.ClassCleanRankers:
	case adversary.ClassTriggered:
		e.Protocol.ForceTriggered(i)
	case adversary.ClassRandomGarbage:
		adversary.CorruptOne(e.Protocol, i, src)
	default:
		return fmt.Errorf("sspp: class %q not realizable as an electleader join state", class)
	}
	return nil
}

// validateBaseline is the shared validation of the non-core protocols: a
// real population and no synthetic-coin mode (the Appendix B construction
// is wired into ElectLeader_r's agents only).
func validateBaseline(cfg Config) error {
	if cfg.N < 2 {
		return fmt.Errorf("population size %d < 2", cfg.N)
	}
	if cfg.SyntheticCoins {
		return fmt.Errorf("synthetic coins are only supported by %q", ProtocolElectLeader)
	}
	return nil
}

// validateLooseLE adds LooseLE's timeout bounds to validateBaseline: τ is 0
// (the default) or at least 2, since at τ = 1 every interacting non-leader
// promotes itself and no unique leader is ever reached; and τ+1 — the bound
// of the random-state draw behind random-garbage starts and transient
// faults — must not overflow int32.
func validateLooseLE(cfg Config) error {
	if err := validateBaseline(cfg); err != nil {
		return err
	}
	if cfg.Tau < 0 || cfg.Tau == 1 || cfg.Tau == math.MaxInt32 {
		return fmt.Errorf("loosele timeout tau %d: want 0 (the default) or a value in [2, %d]", cfg.Tau, math.MaxInt32-1)
	}
	return nil
}

// looseTau resolves the LooseLE timeout: Config.Tau, defaulting to 4·ln n
// (at least 2) — safely above the heartbeat-epidemic scale (T13).
func looseTau(cfg Config) int32 {
	if cfg.Tau > 0 {
		return cfg.Tau
	}
	return max(int32(4*math.Log(float64(cfg.N))), 2)
}

// nLogBudget is the generic budget c·n·ln(n+1) for protocols with
// O(n·log n)-shaped running times.
func nLogBudget(c float64, n int) uint64 {
	nf := float64(n)
	return uint64(c * nf * math.Log(nf+1))
}

// registry lists every protocol in presentation order. Budgets are
// generous multiples of each protocol's expected stabilization shape,
// mirroring DefaultBudget's role for ElectLeader_r.
var registry = []protocolSpec{
	{
		name:            ProtocolElectLeader,
		description:     "ElectLeader_r (Thm 1.1): self-stabilizing ranking, O((n²/r)·log n) time, 2^O(r²·log n) states",
		selfStabilizing: true,
		validate:        func(cfg Config) error { return core.ValidateParams(cfg.N, cfg.R) },
		build: func(cfg Config, ev *sim.Events) (sim.Protocol, error) {
			opts := []core.Option{core.WithSeed(cfg.Seed), core.WithEvents(ev)}
			if cfg.SyntheticCoins {
				opts = append(opts, core.WithSyntheticCoins())
			}
			p, err := core.New(cfg.N, cfg.R, opts...)
			if err != nil {
				return nil, err
			}
			return &electProtocol{Protocol: p}, nil
		},
		compactClean: func(cfg Config, ev *sim.Events) (sim.CompactModel, error) {
			// Synthetic coins never reach here: admit rejects the
			// combination before the species build path runs.
			return core.CompactClean(cfg.N, cfg.R, core.WithSeed(cfg.Seed), core.WithEvents(ev))
		},
		budget: func(cfg Config) uint64 {
			n, r := float64(cfg.N), float64(cfg.R)
			return uint64(1000 * n * n / r * math.Log(n+1))
		},
		zero: (*electProtocol)(nil),
	},
	{
		name:            ProtocolCIW,
		description:     "Cai-Izumi-Wada-style silent ranking (§2): n states, Θ(n²) expected time, self-stabilizing",
		selfStabilizing: true,
		validate:        validateBaseline,
		build: func(cfg Config, _ *sim.Events) (sim.Protocol, error) {
			return baseline.NewCIW(cfg.N), nil
		},
		budget: func(cfg Config) uint64 { return uint64(2000 * cfg.N * cfg.N) },
		zero:   (*baseline.CIW)(nil),
	},
	{
		name:            ProtocolNameRank,
		description:     "names-broadcast ranking (App. D / [16]): O(n·log n) time whp, O(n·log n) bits, not self-stabilizing",
		selfStabilizing: false,
		validate:        validateBaseline,
		build: func(cfg Config, _ *sim.Events) (sim.Protocol, error) {
			return baseline.NewNameRank(cfg.N, coin.FromPRNG(rng.New(cfg.Seed))), nil
		},
		budget: func(cfg Config) uint64 { return nLogBudget(2000, cfg.N) },
		zero:   (*baseline.NameRank)(nil),
	},
	{
		name:            ProtocolLooseLE,
		description:     "loosely-stabilizing election (Sudo et al.): fast convergence, leader held for a finite τ-controlled time",
		selfStabilizing: false,
		validate:        validateLooseLE,
		build: func(cfg Config, _ *sim.Events) (sim.Protocol, error) {
			return baseline.NewLooseLE(cfg.N, looseTau(cfg)), nil
		},
		budget: func(cfg Config) uint64 { return nLogBudget(500, cfg.N) },
		zero:   (*baseline.LooseLE)(nil),
	},
	{
		name:            ProtocolFastLE,
		description:     "FastLeaderElect (App. D.2, Lemma D.10): O(n·log n) election from awakening starts, not self-stabilizing",
		selfStabilizing: false,
		validate:        validateBaseline,
		build: func(cfg Config, _ *sim.Events) (sim.Protocol, error) {
			return ranking.NewFastLE(cfg.N, coin.FromPRNG(rng.New(cfg.Seed))), nil
		},
		budget: func(cfg Config) uint64 { return nLogBudget(1000, cfg.N) },
		zero:   (*ranking.FastLE)(nil),
	},
}

// specFor resolves a Config.Protocol value ("" selects ElectLeader_r).
func specFor(name string) (*protocolSpec, error) {
	if name == "" {
		name = ProtocolElectLeader
	}
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("sspp: unknown protocol %q (see Protocols())", name)
}

// capabilitiesOf probes which optional engine capabilities p implements.
func capabilitiesOf(p sim.Protocol) []string {
	var caps []string
	if _, ok := sim.AsRanker(p); ok {
		caps = append(caps, CapabilityRanker)
	}
	if _, ok := sim.AsSafeSetter(p); ok {
		caps = append(caps, CapabilitySafeSet)
	}
	if _, ok := sim.AsInjectable(p); ok {
		caps = append(caps, CapabilityInjectable)
	}
	if _, ok := sim.AsSnapshotter(p); ok {
		caps = append(caps, CapabilitySnapshotter)
	}
	if _, ok := sim.AsCompactable(p); ok {
		caps = append(caps, CapabilityCompactable)
	}
	if _, ok := sim.AsChurnable(p); ok {
		caps = append(caps, CapabilityChurnable)
	}
	if _, ok := sim.AsContinuousStepper(p); ok {
		caps = append(caps, CapabilityContinuous)
	}
	return caps
}

// Protocols returns the registry in presentation order: every protocol
// Config.Protocol accepts, with its capability set. All of them run through
// the same System.Run and Ensemble machinery.
func Protocols() []ProtocolInfo {
	out := make([]ProtocolInfo, 0, len(registry))
	for _, spec := range registry {
		out = append(out, ProtocolInfo{
			Name:            spec.name,
			Description:     spec.description,
			SelfStabilizing: spec.selfStabilizing,
			Capabilities:    capabilitiesOf(spec.zero),
		})
	}
	return out
}

// Protocol is the minimal contract a population protocol needs to run on
// the engine: a fixed population, a transition function over ordered pairs,
// and an output-correctness predicate. Implementations may additionally
// provide the optional capabilities (see the Capability* constants) as
// methods — the engine detects them structurally.
//
// Implementations are single-threaded state machines: the engine calls
// Interact sequentially, never concurrently.
type Protocol interface {
	// N returns the population size.
	N() int
	// Interact applies the transition function to the ordered pair of
	// distinct agents (a, b): a initiates, b responds.
	Interact(a, b int)
	// Correct reports whether the current configuration has correct output
	// (for leader election: exactly one agent outputs "leader").
	Correct() bool
}

// customProtocol is the protocol name of NewCustom and NewSpecies systems.
const customProtocol = "custom"

// NewCustom wraps a user-supplied protocol in a System, so it runs through
// the same engine as the registry protocols: composable Run options,
// pluggable schedulers, stop predicates (SafeSet falls back to confirmed
// correct output unless the protocol implements an InSafeSet method), and
// custom conditions. The default interaction budget is 1000·n·ln(n+1);
// protocols expected to be slower should pass MaxInteractions explicitly.
func NewCustom(p Protocol) (*System, error) {
	if p == nil {
		return nil, fmt.Errorf("sspp: nil protocol")
	}
	if p.N() < 2 {
		return nil, fmt.Errorf("sspp: population size %d < 2", p.N())
	}
	return &System{plan: plan{cfg: Config{Protocol: customProtocol, N: p.N(), Backend: BackendAgent, Clock: ClockDiscrete}},
		proto: p, events: sim.NewEvents()}, nil
}
