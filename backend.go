// backend.go implements backend selection and the public species surface.
// A System can run its protocol on one of two simulation backends: the
// agent backend stores one struct per agent (the default), while the
// species backend (internal/species) stores the population as a multiset of
// states and samples interactions from the counts, reaching populations of
// 10⁶–10⁸ agents. Protocols advertise a species form through the
// compactable capability — every built-in protocol has one, including
// ElectLeader_r, whose rich coupled state is interned behind canonical keys
// (internal/core/compact.go); Config.Backend selects explicitly, and
// BackendAuto picks the species backend for compactable protocols once the
// population crosses SpeciesAutoThreshold.

package sspp

import (
	"fmt"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

// The simulation backends accepted by Config.Backend.
const (
	// BackendAgent stores one struct per agent — every protocol supports
	// it, and "" selects it, keeping pre-backend configurations unchanged.
	BackendAgent = "agent"
	// BackendSpecies stores the population as state counts and samples
	// interactions from them; requires the compactable capability. Agent
	// identities do not exist under it: runs accept only uniform schedulers
	// (SchedulerSeed / NewUniform), and per-agent surfaces (Ranks, Leader
	// index, Inject) are unavailable.
	BackendSpecies = "species"
	// BackendAuto selects BackendSpecies for compactable protocols at
	// populations of SpeciesAutoThreshold agents or more, BackendAgent
	// otherwise.
	BackendAuto = "auto"
)

// SpeciesAutoThreshold is the population size at which BackendAuto switches
// compactable protocols to the species backend.
const SpeciesAutoThreshold = 1 << 16

// speciesSeedSalt decorrelates the species backend's fallback sampling
// stream from the protocol seed; engine runs rebind the scheduler stream.
const speciesSeedSalt = 0xA5A5_5A5A_0F0F_F0F0

// compactProto converts a freshly built agent-level protocol to its species
// form. The agent instance only serves as the configuration source; the
// returned protocol carries the capability set its compact model declares.
func compactProto(p sim.Protocol, seed uint64) (sim.Protocol, error) {
	comp, ok := sim.AsCompactable(p)
	if !ok {
		return nil, fmt.Errorf("protocol %T has no species form", p)
	}
	return speciesProto(comp.Compact(), seed)
}

// speciesProto runs a compact model on the species backend, its fallback
// sampling stream drawn from seed.
func speciesProto(m sim.CompactModel, seed uint64) (sim.Protocol, error) {
	sp, err := species.NewSystem(m, seed^speciesSeedSalt)
	if err != nil {
		return nil, err
	}
	return species.Capable(sp), nil
}

// StateCounts is a read-only view of a species-form population: state keys
// with their agent counts. The Correct and SafeSet predicates of a
// SpeciesModel receive one.
type StateCounts interface {
	// N returns the population size (the sum of all counts).
	N() int
	// Occupied returns the number of states with a positive count.
	Occupied() int
	// Count returns the number of agents currently in state key.
	Count(key uint64) int64
	// Each calls fn for every occupied state until fn returns false; the
	// iteration order is unspecified.
	Each(fn func(key uint64, count int64) bool)
}

// Rand is the deterministic randomness handle passed to SpeciesModel.React.
// It draws from the run's scheduler stream, so species runs stay
// reproducible from the same seeds as agent runs.
type Rand struct {
	src *rng.PRNG
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Intn returns a uniformly random int in [0, n); it panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Bool returns a uniformly random boolean.
func (r *Rand) Bool() bool { return r.src.Bool() }

// SpeciesModel describes a user protocol in species form: dynamics over
// opaque uint64 state keys with agent counts, instead of indexed agents.
// Any protocol whose transition depends only on the two interacting states
// — not on agent identities — has one, and running it through NewSpecies
// scales to populations far beyond one-struct-per-agent storage.
type SpeciesModel struct {
	// States, when positive, declares that every key lies in [0, States):
	// the engine then uses dense arrays instead of a hash map.
	States uint64
	// Diagonal declares that ordered pairs of distinct states never react
	// (only (s, s) pairs can change state); the engine then skips runs of
	// silent interactions with one geometric draw.
	Diagonal bool
	// Init returns the initial configuration as parallel key/count slices
	// (distinct keys, positive counts, summing to the population size n ≥ 2).
	Init func() (keys []uint64, counts []int64)
	// React applies the transition function to the ordered state pair
	// (a initiates, b responds), drawing randomness from rnd.
	React func(a, b uint64, rnd *Rand) (uint64, uint64)
	// Leader reports whether agents in state key output "leader". Required
	// unless Correct is provided.
	Leader func(key uint64) bool
	// Rank returns the rank output of state key (0 when none); nil for
	// protocols without a ranking output.
	Rank func(key uint64) int32
	// Correct, when non-nil, overrides the default output predicate
	// (exactly one agent in a leader state).
	Correct func(v StateCounts) bool
	// SafeSet, when non-nil, defines the protocol's safe set; Until(SafeSet)
	// then measures it directly instead of falling back to confirmed output.
	SafeSet func(v StateCounts) bool
}

// compile converts the public model to the engine's internal form.
func (m SpeciesModel) compile() sim.CompactModel {
	cm := sim.CompactModel{
		StateSpace: m.States,
		Diagonal:   m.Diagonal,
		Init:       m.Init,
		Leader:     m.Leader,
		Rank:       m.Rank,
	}
	if m.React != nil {
		rnd := &Rand{}
		cm.React = func(a, b uint64, src *rng.PRNG) (uint64, uint64) {
			rnd.src = src
			return m.React(a, b, rnd)
		}
	}
	if m.Correct != nil {
		cm.Correct = func(v sim.CountView) bool { return m.Correct(v) }
	}
	if m.SafeSet != nil {
		cm.SafeSet = func(v sim.CountView) bool { return m.SafeSet(v) }
	}
	return cm
}

// NewSpecies wraps a user-supplied species model in a System, running it
// through the same engine as everything else: composable Run options, stop
// predicates, Ensemble grids. Only uniform schedulers are supported (agent
// identities do not exist in species form), and the default interaction
// budget is the generic 1000·n·ln(n+1) envelope of custom protocols.
func NewSpecies(model SpeciesModel) (*System, error) {
	p, err := speciesProto(model.compile(), 0)
	if err != nil {
		return nil, fmt.Errorf("sspp: %w", err)
	}
	return &System{
		plan:   plan{cfg: Config{Protocol: customProtocol, N: p.N(), Backend: BackendSpecies, Clock: ClockDiscrete}},
		proto:  p,
		events: sim.NewEvents(),
	}, nil
}
