// Package core implements ElectLeader_r (Section 4, Protocol 1), the
// paper's self-stabilizing leader-election-and-ranking protocol, by
// composing the three role modules:
//
//   - Resetting agents run PropagateReset (internal/reset, Appendix C),
//   - Ranking agents run AssignRanks_r (internal/ranking, Appendix D) under
//     a countdown that forces the transition to verification,
//   - Verifying agents run StableVerify_r (internal/verify, Section 5),
//     which embeds DetectCollision_r (internal/detect, Section 5.1).
//
// The agent with rank 1 is the leader. Starting from any configuration the
// protocol reaches, w.h.p. within O((n²/r)·log n) interactions, a safe
// configuration in which the ranking is a permutation of [n] and never
// changes again (Theorem 1.1).
package core

import (
	"fmt"

	"sspp/internal/coin"
	"sspp/internal/detect"
	"sspp/internal/ranking"
	"sspp/internal/reset"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/verify"
)

// Role is an agent's top-level role (Section 4, Fig. 1).
type Role uint8

const (
	// RoleRanking: the agent executes AssignRanks_r.
	RoleRanking Role = iota
	// RoleResetting: the agent executes PropagateReset.
	RoleResetting
	// RoleVerifying: the agent executes StableVerify_r.
	RoleVerifying
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleRanking:
		return "ranking"
	case RoleResetting:
		return "resetting"
	case RoleVerifying:
		return "verifying"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Agent is the full per-agent state of ElectLeader_r. Only the fields of the
// current role are meaningful; role transitions nil/zero the rest, matching
// the paper's "inactive fields are deleted" convention (which is also what
// bounds the state space as a disjoint union, Fig. 1).
type Agent struct {
	// Role is the agent's current role.
	Role Role
	// Reset is the PropagateReset state (RoleResetting).
	Reset reset.State
	// Countdown forces rankers into verification (RoleRanking).
	Countdown int32
	// AR is the AssignRanks_r state qAR (RoleRanking).
	AR *ranking.State
	// Rank is the committed rank (RoleVerifying).
	Rank int32
	// SV is the StableVerify_r state qSV (RoleVerifying).
	SV *verify.State
	// Coin is the synthetic-coin state (Appendix B), maintained in every
	// role when the protocol runs in derandomized mode.
	Coin coin.State
}

// Protocol is one ElectLeader_r instance. It implements sim.Protocol. It is
// not safe for concurrent use.
type Protocol struct {
	n int
	r int

	// dyn is the identity-free transition machinery (dynamics.go): the
	// constants, verify/detect parameters, event sink, detect scratch and
	// per-role free lists, shared verbatim with the compact model.
	dyn dynamics

	agents   []Agent
	samplers []coin.Sampler

	synthetic bool
	src       *rng.PRNG

	// Incremental predicate counters (counters.go). Maintained by
	// untrack/track around every agent mutation, they make the correctness
	// predicates and the cheap gates of InSafeSet O(1).
	roleCount  [3]int                  // agents per Role
	genCount   [verify.Generations]int // verifiers per generation (mod 6)
	probCount  [verify.Generations]int // verifiers on probation, per generation
	topCount   int                     // verifiers in ⊤
	rankCount  []int32                 // agents per in-range rank output
	rankExcess int                     // Σ_rank max(0, rankCount-1)
	rankOOR    int                     // agents with out-of-range rank output
	leaderSum  int                     // Σ of indices of rank-1 agents

	// ptrs points at every agent: the verifier set InSafeSet hands to the
	// shared Lemma 6.1 predicate, whose buffers walk keeps (correct.go).
	ptrs []*Agent
	walk safeWalk
}

var _ sim.Protocol = (*Protocol)(nil)

// config collects the options of New.
type config struct {
	seed      uint64
	consts    *Constants
	synthetic bool
	events    *sim.Events
}

// Option configures New.
type Option func(*config)

// WithSeed sets the seed of the protocol-internal randomness (identifier
// draws and signature refreshes). The scheduler randomness is separate and
// supplied by the runner. Default seed: 1.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithConstants overrides the default constants.
func WithConstants(consts Constants) Option {
	return func(c *config) { cc := consts; c.consts = &cc }
}

// WithSyntheticCoins runs the protocol in the derandomized mode of Appendix
// B: all protocol sampling is served from per-agent synthetic coins fed only
// by scheduler randomness, instead of from the PRNG.
func WithSyntheticCoins() Option { return func(c *config) { c.synthetic = true } }

// WithEvents attaches an event sink recording resets, detections and role
// transitions.
func WithEvents(ev *sim.Events) Option { return func(c *config) { c.events = ev } }

// ValidateParams reports whether New would accept (n, r) with default
// constants, without building the population — an O(1) check for grid
// validation.
func ValidateParams(n, r int) error {
	return DefaultConstants(n, r).Validate(n)
}

// New builds an ElectLeader_r instance over n agents with trade-off
// parameter 1 ≤ r ≤ n/2. The initial configuration is the clean
// post-awakening one: every agent a fresh ranker (use the adversary package
// or the Force* mutators for other starting configurations).
func New(n, r int, opts ...Option) (*Protocol, error) {
	cfg, dyn, err := resolve(n, r, opts)
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		n:         n,
		r:         r,
		dyn:       dyn,
		agents:    make([]Agent, n),
		samplers:  make([]coin.Sampler, n),
		synthetic: cfg.synthetic,
		src:       rng.New(cfg.seed),
		rankCount: make([]int32, n),
		ptrs:      make([]*Agent, n),
	}
	p.dyn.home = &p.agents[0]
	width := coin.WidthFor(int(dyn.consts.Ranking.IDSpace))
	prngSampler := coin.FromPRNG(p.src)
	// The rankers and their channels come from two slabs rather than 2n
	// small allocations; the full slice expression caps each channel, so
	// growing one reallocates instead of spilling into its neighbour.
	R := int(dyn.consts.Ranking.R)
	ars := make([]ranking.State, n)
	chans := make([]int32, n*R)
	for i := range p.agents {
		a := &p.agents[i]
		p.ptrs[i] = a
		a.Coin = coin.NewState(width, uint64(i)+cfg.seed*0x9E37)
		if cfg.synthetic {
			p.samplers[i] = a.Coin.Sample
		} else {
			p.samplers[i] = prngSampler
		}
		ars[i].Channel = chans[i*R : (i+1)*R : (i+1)*R]
		a.AR = &ars[i]
		p.dyn.reinitRanker(a)
	}
	p.recount()
	return p, nil
}

// resolve applies New's options for (n, r) — the seed default, the
// constant override and its validation — and builds the transition
// machinery they configure. New and CompactClean both start here, so the
// agent and species forms cannot configure the protocol differently. The
// config is returned even with an error, for callers that check an option
// before the constants.
func resolve(n, r int, opts []Option) (config, dynamics, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	consts := DefaultConstants(n, r)
	if cfg.consts != nil {
		consts = *cfg.consts
	}
	if err := consts.Validate(n); err != nil {
		return cfg, dynamics{}, err
	}
	dp := detect.NewParamsWithRefresh(n, r, consts.DetectRefresh)
	dp.SetNoBalance(consts.DisableLoadBalance)
	d := dynamics{
		n:      n,
		consts: consts,
		vp:     verify.Params{PMax: consts.PMax, Detect: dp, HardOnly: consts.DisableSoftReset},
		events: cfg.events,
	}
	return cfg, d.detached(), nil
}

// N returns the population size.
func (p *Protocol) N() int { return p.n }

// R returns the trade-off parameter r.
func (p *Protocol) R() int { return p.r }

// Constants returns the protocol's constants.
func (p *Protocol) Constants() Constants { return p.dyn.consts }

// VerifyParams returns the StableVerify_r parameters (tests and the
// adversary package need them to build type-valid states).
func (p *Protocol) VerifyParams() verify.Params { return p.dyn.vp }

// Events returns the attached event sink (possibly nil).
func (p *Protocol) Events() *sim.Events { return p.dyn.events }

// Agent returns agent i's state for inspection. Mutations should go through
// the Force* methods, which keep states type-valid.
func (p *Protocol) Agent(i int) *Agent { return &p.agents[i] }

// Interact applies one ElectLeader_r interaction (Protocol 1) to the ordered
// pair (a, b). Only the two participating agents can change, so the
// incremental counters are maintained by bracketing the transition with
// untrack/track on exactly those two.
//
//sspp:hotpath
func (p *Protocol) Interact(a, b int) {
	p.untrack(a)
	p.untrack(b)
	p.interact(a, b)
	p.track(a)
	p.track(b)
}

// interact is the tracking-free transition body of Interact: the
// synthetic-coin observation (the only per-agent-identity piece of the
// transition), then the shared pair dynamics.
//
//sspp:hotpath
func (p *Protocol) interact(a, b int) {
	u, v := &p.agents[a], &p.agents[b]
	if p.synthetic {
		coin.Observe(&u.Coin, &v.Coin)
	}
	p.dyn.interactPair(u, v, p.samplers[a], p.samplers[b])
}
