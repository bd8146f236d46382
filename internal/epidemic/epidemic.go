// Package epidemic implements the information-spreading primitives that the
// paper's analysis relies on throughout (Lemma A.2): one-way and two-way
// infection epidemics and the min-value epidemic used by FastLeaderElect
// (Appendix D.2) and by the broadcast of deputy counters (Appendix D).
//
// Lemma A.2 states that there is a constant c_epi < 7 such that n epidemics
// started simultaneously all complete within c_epi·n·log n interactions
// w.h.p. Experiment T5 measures this constant empirically.
package epidemic

import "sspp/internal/sim"

// OneWay is a one-way infection epidemic: when an infected initiator meets a
// susceptible responder, the responder becomes infected. Interactions in the
// other direction do not transmit.
type OneWay struct {
	infected []bool
	count    int
}

var _ sim.Protocol = (*OneWay)(nil)

// NewOneWay returns a one-way epidemic over n agents with the given sources
// initially infected.
func NewOneWay(n int, sources ...int) *OneWay {
	e := &OneWay{infected: make([]bool, n)}
	for _, s := range sources {
		if !e.infected[s] {
			e.infected[s] = true
			e.count++
		}
	}
	return e
}

// N returns the population size.
func (e *OneWay) N() int { return len(e.infected) }

// Interact transmits the infection from initiator a to responder b.
func (e *OneWay) Interact(a, b int) {
	if e.infected[a] && !e.infected[b] {
		e.infected[b] = true
		e.count++
	}
}

// Correct reports whether every agent is infected.
func (e *OneWay) Correct() bool { return e.count == len(e.infected) }

// Infected returns the number of infected agents.
func (e *OneWay) Infected() int { return e.count }

// IsInfected reports whether agent i is infected.
func (e *OneWay) IsInfected(i int) bool { return e.infected[i] }

// TwoWay is a two-way infection epidemic: an interaction between an infected
// and a susceptible agent infects the susceptible one regardless of
// direction. This matches the epidemics of the paper's Lemma A.2.
type TwoWay struct {
	OneWay
}

var _ sim.Protocol = (*TwoWay)(nil)

// NewTwoWay returns a two-way epidemic over n agents with the given sources
// initially infected.
func NewTwoWay(n int, sources ...int) *TwoWay {
	return &TwoWay{OneWay: *NewOneWay(n, sources...)}
}

// Interact transmits the infection in either direction.
func (e *TwoWay) Interact(a, b int) {
	e.OneWay.Interact(a, b)
	e.OneWay.Interact(b, a)
}

// Min is the min-value (two-way) epidemic: both interaction partners adopt
// the minimum of their values. FastLeaderElect (Appendix D.2, Eq. 10) uses
// exactly this to spread the minimum identifier.
type Min struct {
	values []int64
	min    int64
	done   int // number of agents currently holding the global minimum
}

var _ sim.Protocol = (*Min)(nil)

// NewMin returns a min-epidemic over the given initial values. The slice is
// copied. It panics on an empty input.
func NewMin(values []int64) *Min {
	if len(values) == 0 {
		panic("epidemic: NewMin with empty values")
	}
	m := &Min{values: append([]int64(nil), values...)}
	m.min = m.values[0]
	for _, v := range m.values[1:] {
		if v < m.min {
			m.min = v
		}
	}
	for _, v := range m.values {
		if v == m.min {
			m.done++
		}
	}
	return m
}

// N returns the population size.
func (m *Min) N() int { return len(m.values) }

// Interact makes both agents adopt the smaller of their two values.
func (m *Min) Interact(a, b int) {
	va, vb := m.values[a], m.values[b]
	if va == vb {
		return
	}
	lo := va
	if vb < va {
		lo = vb
	}
	if va != lo {
		m.values[a] = lo
		if lo == m.min {
			m.done++
		}
	}
	if vb != lo {
		m.values[b] = lo
		if lo == m.min {
			m.done++
		}
	}
}

// Correct reports whether every agent holds the global minimum.
func (m *Min) Correct() bool { return m.done == len(m.values) }

// Value returns agent i's current value.
func (m *Min) Value(i int) int64 { return m.values[i] }

// GlobalMin returns the global minimum of the initial values.
func (m *Min) GlobalMin() int64 { return m.min }
