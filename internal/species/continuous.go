// continuous.go runs the count-based backend under the continuous-time
// population clock: interactions form a Poisson process of rate n/2 per unit
// parallel time, so k interactions advance the clock by Gamma(k)·(2/n) (one
// draw per batch, the same trick as sim.TimeKeeper.AdvanceMany). The jump
// chain is untouched — holding times come from a dedicated stream — so the
// exact continuous mode visits the identical state sequence as the discrete
// run with the same sampling seed and merely equips it with native parallel
// time. With leaping enabled (and a deterministic model) StepMany instead
// routes through the τ-leaping integrator in leap.go, falling back to exact
// stepping in doubling chunks whenever a leap is not profitable, so the
// backoff cost of repeated short leaps stays amortized.

package species

import (
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// exactChunk backoff bounds: after a failed leap the backend steps exactly
// for a chunk of interactions before trying to leap again, doubling the
// chunk while leaps keep failing (and resetting on success) so the O(occ²)
// channel-enumeration cost of hopeless leap attempts is amortized.
const (
	leapExactChunkMin = 64
	leapExactChunkMax = 1 << 16
)

// The System steps natively under the continuous clock.
var _ sim.ContinuousStepper = (*System)(nil)

// StartContinuous switches the backend to the continuous-time clock:
// subsequent stepping accrues parallel time from timeSrc (a stream dedicated
// to holding times — sharing the sampling stream would perturb the jump
// chain). With leap true and a model declaring Deterministic dynamics,
// stepping additionally routes through the τ-leaping integrator.
func (s *System) StartContinuous(timeSrc *rng.PRNG, leap bool) {
	s.continuous = true
	s.timeSrc = timeSrc
	s.leap = leap && s.model.Deterministic
	s.exactChunk = leapExactChunkMin
}

// ParallelTime returns the parallel time accrued so far (0 before
// StartContinuous).
func (s *System) ParallelTime() float64 { return s.pt }

// stepContinuous executes k interactions under the continuous clock,
// leaping when enabled and profitable.
func (s *System) stepContinuous(k uint64) {
	if !s.leap {
		s.stepExactTimed(k)
		return
	}
	for k > 0 {
		consumed := s.leapOnce(k)
		if consumed == 0 {
			// Leap not profitable here (too many occupied states, or the
			// selected leap is shorter than exact stepping is worth): run an
			// exact chunk and back off so failed attempts stay amortized.
			chunk := s.exactChunk
			if chunk > k {
				chunk = k
			}
			s.stepExactTimed(chunk)
			k -= chunk
			if s.exactChunk < leapExactChunkMax {
				s.exactChunk *= 2
			}
			continue
		}
		s.exactChunk = leapExactChunkMin
		k -= consumed
	}
}

// stepExactTimed steps the exact jump chain for k interactions and advances
// the parallel-time clock past them in one Gamma draw.
//
//sspp:hotpath
func (s *System) stepExactTimed(k uint64) {
	if k == 0 {
		return
	}
	if s.diagonal {
		s.stepDiagonal(k)
	} else {
		s.stepAll(k)
	}
	s.accrue(k)
}

// accrue advances the native clock past k just-executed interactions: the
// sum of k unit exponentials at rate n/2 is Gamma(k)·(2/n).
//
//sspp:hotpath
func (s *System) accrue(k uint64) {
	s.pt += s.timeSrc.Gamma(float64(k)) * 2 / float64(s.n)
}
