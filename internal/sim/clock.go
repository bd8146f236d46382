// clock.go holds the owners of parallel time, the paper's time unit: every
// system has exactly one Clock. Under the standard continuous-time
// population model interactions form a Poisson process of rate n/2 per unit
// parallel time (each of the n agents carries a rate-1/2 pairing clock). A
// TimeKeeper simulates exactly that global clock for complete-topology runs:
// the jump chain (which pairs interact, in which order) is untouched —
// holding times are drawn from a separate stream — so
// a continuous-clock run deals the identical interaction sequence as the
// discrete run with the same scheduler seed, and merely equips it with
// native event times. Batch advances draw one Gamma(k) variate for k
// interactions instead of k exponentials, which keeps silent-skip and
// τ-leap bundles O(1) per batch.

package sim

import "sspp/internal/rng"

// TimeKeeper advances the global exponential clock of the continuous-time
// population model on the complete topology: successive interactions are
// separated by Exp(rate n/2) holding times, i.e. mean 2/n units of parallel
// time each. The rate follows the live population size via SetN, so runs
// with churn accrue time at the correct instantaneous rate.
type TimeKeeper struct {
	src     *rng.PRNG
	invRate float64 // mean holding time per interaction: 2/n
	t       float64
}

// NewTimeKeeper builds a clock for population size n (n ≥ 1) starting at
// parallel time zero, drawing holding times from src. The stream must be
// dedicated to the clock: sharing the scheduler stream would perturb the
// jump chain relative to a discrete-clock run with the same seed.
func NewTimeKeeper(src *rng.PRNG, n int) *TimeKeeper {
	tk := &TimeKeeper{src: src}
	tk.SetN(n)
	return tk
}

// SetN moves the interaction rate to n/2, the continuous-time rate of a
// population of n agents. It panics when n < 1.
func (tk *TimeKeeper) SetN(n int) {
	if n < 1 {
		panic("sim: TimeKeeper.SetN called with n < 1")
	}
	tk.invRate = 2 / float64(n)
}

// Advance moves the clock past one interaction: t += Exp(1)·(2/n).
//
//sspp:hotpath
func (tk *TimeKeeper) Advance() {
	tk.t += tk.src.Exp() * tk.invRate
}

// AdvanceMany moves the clock past k interactions in one draw: the sum of k
// unit exponentials is Gamma(k), so t += Gamma(k)·(2/n) has exactly the law
// of k successive Advance calls while costing O(1). This is what keeps
// batched stepping (silent skips, τ-leap bundles) cheap under the
// continuous clock.
func (tk *TimeKeeper) AdvanceMany(k uint64) {
	if k == 0 {
		return
	}
	if k == 1 {
		tk.Advance()
		return
	}
	tk.t += tk.src.Gamma(float64(k)) * tk.invRate
}

// Time returns the current parallel time.
func (tk *TimeKeeper) Time() float64 { return tk.t }

// Clock is the one owner of a system's parallel time: the engine advances
// it once per stepping chunk and re-rates it at every churn event.
type Clock interface {
	Time() float64        // the parallel time elapsed so far
	AdvanceMany(k uint64) // accrue k just-executed interactions
	SetN(n int)           // move to a population of n agents
}

// DiscreteClock counts 1/n per interaction at the live population size n,
// one segment per size: base + steps/n, with SetN closing the open segment,
// so a churn-free history reads exactly interactions/n.
type DiscreteClock struct {
	base  float64 // time of the closed segments
	steps uint64  // interactions in the open segment
	n     int
	seg   uint64 // segments closed so far: the open segment's identity
}

// NewDiscreteClock returns a discrete clock at time zero for n agents.
func NewDiscreteClock(n int) *DiscreteClock { return &DiscreteClock{n: n} }

func (c *DiscreteClock) Time() float64        { return c.base + float64(c.steps)/float64(c.n) }
func (c *DiscreteClock) AdvanceMany(k uint64) { c.steps += k }
func (c *DiscreteClock) SetN(n int) {
	if n != c.n {
		c.restart(c.Time(), n)
	}
}

// restart closes the open segment and opens one at time base for n agents.
func (c *DiscreteClock) restart(base float64, n int) {
	c.base, c.steps, c.n = base, 0, n
	c.seg++
}

// Mark is a reading of a Clock, the origin Since measures from.
type Mark struct {
	t          float64 // the clock's Time at the mark
	seg, steps uint64  // a discrete clock's open segment and its interactions then
}

// MarkOf reads c now.
func MarkOf(c Clock) Mark {
	m := Mark{t: c.Time()}
	if d, ok := c.(*DiscreteClock); ok {
		m.seg, m.steps = d.seg, d.steps
	}
	return m
}

// Since returns the parallel time c has accrued since the mark m read off
// it. A discrete clock whose population has not changed since the mark
// answers from its step counts, (steps − m.steps)/n, so a system that has
// already run reads exactly what a fresh one does; otherwise it is the
// difference of the two readings.
func Since(c Clock, m Mark) float64 {
	if d, ok := c.(*DiscreteClock); ok && d.seg == m.seg {
		return float64(d.steps-m.steps) / float64(d.n)
	}
	return c.Time() - m.t
}

// NativeClock is the clock of a count-based backend that accrues parallel
// time inside every interaction it executes (its own stepping and the pairs
// a trace replay applies), at its own population size.
type NativeClock struct{ ContinuousStepper }

func (c NativeClock) Time() float64    { return c.ParallelTime() }
func (NativeClock) AdvanceMany(uint64) {}
func (NativeClock) SetN(int)           {}

// BindClock returns the clock that owns parallel time while sched deals
// pairs under a continuous clock. A scheduler that times its own pairs
// (AsTimed) takes over, counted from c's present so time never runs back;
// any other leaves time with the system's own clock, resumed where a timed
// scheduler bound before left it.
func BindClock(c Clock, sched Scheduler) Clock {
	if tc, ok := c.(*timedClock); ok {
		c = tc.own
		switch own := c.(type) {
		case *DiscreteClock:
			own.restart(tc.Time(), own.n)
		case *TimeKeeper:
			own.t = tc.Time()
		}
	}
	if td, ok := AsTimed(sched); ok {
		return &timedClock{td: td, own: c, from: c.Time(), at: td.Time()}
	}
	return c
}

// timedClock reads a bound scheduler's time elapsed since binding (at) on
// top of the system's time then (from). A next-reaction schedule, or a fresh
// replay on a fresh system, starts at from: both read as the scheduler.
type timedClock struct {
	td       Timed
	own      Clock // the system's own clock, resumed by the next untimed bind
	from, at float64
}

func (c *timedClock) Time() float64 {
	if c.from == c.at {
		return c.td.Time()
	}
	return c.from + (c.td.Time() - c.at)
}
func (*timedClock) AdvanceMany(uint64) {}
func (c *timedClock) SetN(n int)       { c.own.SetN(n) }
