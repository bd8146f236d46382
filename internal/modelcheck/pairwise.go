// pairwise.go is the agent-vector machine for the population protocols: a
// configuration is the vector of all agents' states, and one transition is
// one ordered scheduler pair combined with one assignment of the (at most
// two) signature draws the interaction reads. A layer supplies only how to
// clone, key and interact its agents; with the signature space overridden
// to a small value, the transition relation is finite and every execution
// prefix is enumerated. The layers here are DetectCollision_r and
// StableVerify_r over fixed ranks; internal/core's closure test adds the
// composite protocol.

package modelcheck

import (
	"fmt"

	"sspp/internal/detect"
	"sspp/internal/verify"
)

// maxDraws is the number of draws one interaction may read.
const maxDraws = 2

// Layer is what one protocol supplies to the pairwise machine.
type Layer[A any] interface {
	// Clone deep-copies one agent.
	Clone(A) A
	// AppendKey appends the agent's canonical encoding to b.
	AppendKey(b []byte, agent A) []byte
	// Interact applies the interaction of the ordered pair (a, b) to next,
	// a copy of from whose agents a and b are fresh clones, reading its
	// draws from sample. It reports whether the successor is terminal: it
	// is still checked, but never expanded.
	Interact(from, next []A, a, b int, sample func(int) int) (terminal bool)
}

// Config is one configuration of a pairwise machine.
type Config[A any] struct {
	Agents   []A
	Terminal bool
}

// Pairwise enumerates every execution of a layer from its start
// configurations.
type Pairwise[A any] struct {
	layer    Layer[A]
	sigSpace int
	start    [][]A
	draws    script
	sample   func(int) int // draws.sample, bound once
	key      []byte
}

// NewPairwise builds the machine for layer from the given start
// configurations, each draw ranging over [0, sigSpace).
func NewPairwise[A any](layer Layer[A], sigSpace int, start ...[]A) *Pairwise[A] {
	m := &Pairwise[A]{layer: layer, sigSpace: sigSpace, start: start}
	m.sample = m.draws.sample
	return m
}

// Initial yields the start configurations.
func (m *Pairwise[A]) Initial(yield func([]byte, State) bool) {
	for _, agents := range m.start {
		c := &Config[A]{Agents: agents}
		yield(m.appendKey(c), c)
	}
}

// Successors yields every (ordered pair, draw assignment) transition out
// of a non-terminal configuration. Draws are enumerated lazily: an
// interaction that read k draws has the same successor for every value of
// the draws it did not read, so only the read prefix is branched on.
func (m *Pairwise[A]) Successors(s State, yield func([]byte, State) bool) {
	from := s.(*Config[A])
	if from.Terminal {
		return
	}
	var next *Config[A] // reused until yield keeps it
	for a := range from.Agents {
		for b := range from.Agents {
			if a == b {
				continue
			}
			m.draws = script{}
			for {
				if next == nil {
					next = &Config[A]{Agents: make([]A, len(from.Agents))}
				}
				copy(next.Agents, from.Agents)
				next.Agents[a] = m.layer.Clone(from.Agents[a])
				next.Agents[b] = m.layer.Clone(from.Agents[b])
				m.draws.used = 0
				next.Terminal = m.layer.Interact(from.Agents, next.Agents, a, b, m.sample)
				if yield(m.appendKey(next), next) {
					next = nil
				}
				if !m.draws.advance(m.sigSpace) {
					break
				}
			}
		}
	}
}

// appendKey builds c's key in the machine's one buffer.
func (m *Pairwise[A]) appendKey(c *Config[A]) []byte {
	m.key = append(m.key[:0], 0)
	if c.Terminal {
		m.key[0] = 1
	}
	for _, agent := range c.Agents {
		m.key = append(m.layer.AppendKey(m.key, agent), '|')
	}
	return m.key
}

// script replays one draw assignment and counts the draws read.
type script struct {
	draws [maxDraws]int
	used  int
}

// sample returns the next scripted draw. A draw beyond maxDraws would
// leave part of the nondeterminism unexplored, so it panics.
func (s *script) sample(int) int {
	if s.used == maxDraws {
		panic(fmt.Sprintf("modelcheck: an interaction read more than %d draws", maxDraws))
	}
	s.used++
	return s.draws[s.used-1]
}

// advance steps the read prefix to its next assignment over [0, space),
// lexicographically, and reports false when there is none. Unread draws
// stay 0.
func (s *script) advance(space int) bool {
	for i := s.used - 1; i >= 0; i-- {
		if s.draws[i]++; s.draws[i] < space {
			return true
		}
		s.draws[i] = 0
	}
	return false
}

// detectLayer is DetectCollision_r over fixed ranks.
type detectLayer struct {
	params   *detect.Params
	ranks    []int32
	sigSpace int
	scratch  *detect.Scratch
}

// newDetectLayer checks n and the rank vector (nil = identity) and fixes
// the detection parameters, the signature space clamped to ≥ 2.
func newDetectLayer(n, r int, ranks []int32, sigSpace int32, refresh int) (detectLayer, error) {
	if n < 2 {
		return detectLayer{}, fmt.Errorf("modelcheck: n = %d < 2", n)
	}
	if ranks == nil {
		ranks = make([]int32, n)
		for i := range ranks {
			ranks[i] = int32(i + 1)
		}
	}
	if len(ranks) != n {
		return detectLayer{}, fmt.Errorf("modelcheck: %d ranks for %d agents", len(ranks), n)
	}
	sigSpace = max(sigSpace, 2)
	p := detect.NewParamsWithRefresh(n, r, refresh)
	p.SetSigSpace(sigSpace)
	return detectLayer{params: p, ranks: ranks, sigSpace: int(sigSpace), scratch: detect.NewScratch()}, nil
}

func (detectLayer) Clone(s *detect.State) *detect.State { return s.Clone() }

func (detectLayer) AppendKey(b []byte, s *detect.State) []byte { return s.AppendKey(b) }

func (l detectLayer) Interact(_, next []*detect.State, a, b int, sample func(int) int) bool {
	detect.Interact(l.params, l.ranks[a], next[a], l.ranks[b], next[b], sample, sample, l.scratch)
	return false
}

// NewDetectMachine builds the DetectCollision_r machine for n agents with
// trade-off parameter r, the given rank vector (nil = identity), signature
// space sigSpace (clamped to ≥ 2; keep it tiny — branching is pairs ×
// sigSpace²) and refresh constant c, started from the clean q0,DC
// configuration.
func NewDetectMachine(n, r int, ranks []int32, sigSpace int32, refresh int) (*Pairwise[*detect.State], error) {
	l, err := newDetectLayer(n, r, ranks, sigSpace, refresh)
	if err != nil {
		return nil, err
	}
	start := make([]*detect.State, n)
	for i, rank := range l.ranks {
		start[i] = detect.InitState(l.params, rank)
	}
	return NewPairwise[*detect.State](l, l.sigSpace, start), nil
}

// AnyTop reports whether any agent of a detect configuration raised ⊤.
func AnyTop(s State) bool {
	for _, a := range s.(*Config[*detect.State]).Agents {
		if a.Err {
			return true
		}
	}
	return false
}

// verifyLayer is StableVerify_r (probation timers, generations, soft
// resets, embedded DetectCollision_r) over fixed ranks. A hard reset makes
// the successor terminal.
type verifyLayer struct {
	detect detectLayer
	params verify.Params
}

func (verifyLayer) Clone(s *verify.State) *verify.State {
	out := &verify.State{Generation: s.Generation, Probation: s.Probation}
	if s.DC != nil {
		out.DC = s.DC.Clone()
	}
	return out
}

func (verifyLayer) AppendKey(b []byte, s *verify.State) []byte {
	b = append(b, s.Generation, byte(s.Probation), byte(s.Probation>>8))
	if s.DC != nil {
		b = s.DC.AppendKey(b)
	}
	return b
}

func (l verifyLayer) Interact(_, next []*verify.State, a, b int, sample func(int) int) bool {
	d := &l.detect
	ua, va := verify.Interact(l.params, d.ranks[a], next[a], d.ranks[b], next[b],
		sample, sample, d.scratch, nil)
	return ua == verify.ActHardReset || va == verify.ActHardReset
}

// NewVerifyMachine builds the StableVerify_r machine for n agents, the
// given rank vector (nil = identity), signature space, refresh constant and
// probation ceiling (clamped to ≥ 1). It verifies the heart of Lemma 6.1
// exhaustively at tiny sizes: from a safe configuration — correct ranking,
// clean detection states, coherent generations — no schedule and no random
// draws can ever produce a hard reset. The two start configurations are the
// two safe-set shapes: (a) all agents in generation 0 with fresh q0,SV, and
// (b) agent 0 soft-reset into generation 1 while the rest sit at generation
// 0 with expired probation (the delicate two-generation case created by a
// propagating soft reset).
func NewVerifyMachine(n, r int, ranks []int32, sigSpace int32, refresh int, pmax int32) (*Pairwise[*verify.State], error) {
	d, err := newDetectLayer(n, r, ranks, sigSpace, refresh)
	if err != nil {
		return nil, err
	}
	l := verifyLayer{detect: d, params: verify.Params{PMax: max(pmax, 1), Detect: d.params}}
	fresh := make([]*verify.State, n)
	twoGen := make([]*verify.State, n)
	for i, rank := range d.ranks {
		fresh[i] = verify.InitState(l.params, rank)
		twoGen[i] = verify.InitState(l.params, rank)
		if i == 0 {
			twoGen[i].Generation = 1
		} else {
			twoGen[i].Probation = 0
		}
	}
	return NewPairwise[*verify.State](l, d.sigSpace, fresh, twoGen), nil
}

// HardReset reports whether reaching a verify configuration requested a
// full reset — the event that must be unreachable from safe configurations.
func HardReset(s State) bool { return s.(*Config[*verify.State]).Terminal }
