// leap.go is the τ-leaping integrator of the count-based backend: instead of
// sampling reactive interactions one at a time, a leap spans L consecutive
// interactions of the uniform population model and fires each reaction
// channel a Poisson-distributed number of times in bulk. A channel is an
// ordered pair of occupied states whose (deterministic) transition changes
// state; over one interaction it fires with probability p_j = mass_j/P where
// mass_j is its ordered-pair count mass (c_a·c_b off the diagonal,
// c_a·(c_a−1) on it) and P = n(n−1), so over a leap of L interactions its
// firing count is ≈ Poisson(L·p_j) as long as the counts — and hence the
// p_j — move little within the leap. Leaping over interaction counts rather
// than time intervals keeps StepMany's contract exact: a leap consumes an
// integer number of interactions and never overshoots the budget, and the
// clock advances by Gamma(L)·(2/n) exactly as the unleaped chain would.
//
// The leap length comes from Cao–Gillespie–Petzold τ-selection (bounding the
// expected and fluctuating relative change of every occupied reactant state
// by ε), channels with scarce reactants are classified critical and fired at
// most once via a geometric race (the same first-success trick as the
// diagonal silent-skip), and a bundle whose net deltas would drive any count
// negative is halved and redrawn. Anything unprofitable — too many occupied
// states, a leap shorter than leapMinLen — falls back to exact stepping
// through the doubling backoff in continuous.go.

package species

import "math"

const (
	// leapEpsilon bounds the relative propensity drift tolerated within one
	// leap (Cao's ε).
	leapEpsilon = 0.05
	// leapCritCount is the reactant-count threshold below which a channel is
	// critical: its reactants are scarce enough that a Poisson bundle could
	// overdraw them, so it fires at most once per leap, exactly.
	leapCritCount = 16
	// leapMinLen is the shortest leap worth taking; below it exact stepping
	// is cheaper than channel enumeration.
	leapMinLen = 16
	// leapMaxDiagonalStates and leapMaxPairStates cap the occupied-state
	// count for channel enumeration: diagonal models probe occ channels,
	// general models probe occ² ordered pairs.
	leapMaxDiagonalStates = 4096
	leapMaxPairStates     = 96
	// leapMaxRetries bounds the halve-and-redraw attempts after a bundle
	// fails the negativity check.
	leapMaxRetries = 8
)

// leapWorkspace holds the per-leap scratch state, reused across leaps so the
// steady-state hot path allocates nothing. Channel j's reactants are slots
// (chanA, chanB), its probed successor keys (chanOut1, chanOut2); affected
// state keys accumulate in keys (first-seen order — the map is a lookup
// index only and is never iterated) with parallel τ-selection moments and
// net bundle deltas.
type leapWorkspace struct {
	chanA, chanB       []int32
	chanMass           []int64
	chanOut1, chanOut2 []uint64
	chanCrit           []bool
	critMass           int64

	keys   []uint64
	mu     []float64
	sigma2 []float64
	delta  []int64
	idx    map[uint64]int32
}

// reset clears the workspace for a new leap, keeping capacity.
//
//sspp:hotpath
func (ws *leapWorkspace) reset() {
	ws.chanA = ws.chanA[:0]
	ws.chanB = ws.chanB[:0]
	ws.chanMass = ws.chanMass[:0]
	ws.chanOut1 = ws.chanOut1[:0]
	ws.chanOut2 = ws.chanOut2[:0]
	ws.chanCrit = ws.chanCrit[:0]
	ws.critMass = 0
	if ws.idx == nil {
		ws.idx = make(map[uint64]int32)
	}
	for _, k := range ws.keys {
		delete(ws.idx, k)
	}
	ws.keys = ws.keys[:0]
	ws.mu = ws.mu[:0]
	ws.sigma2 = ws.sigma2[:0]
	ws.delta = ws.delta[:0]
}

// index returns key's position in the affected-state arrays, appending a
// fresh zeroed entry on first sight.
//
//sspp:hotpath
func (ws *leapWorkspace) index(key uint64) int {
	if i, ok := ws.idx[key]; ok {
		return int(i)
	}
	i := len(ws.keys)
	ws.idx[key] = int32(i)
	ws.keys = append(ws.keys, key)
	ws.mu = append(ws.mu, 0)
	ws.sigma2 = append(ws.sigma2, 0)
	ws.delta = append(ws.delta, 0)
	return i
}

// resetDeltas zeroes the net bundle deltas between redraw attempts, keeping
// the τ-selection moments.
//
//sspp:hotpath
func (ws *leapWorkspace) resetDeltas() {
	for i := range ws.delta {
		ws.delta[i] = 0
	}
}

// addChannelNu folds w firings of one channel (reactant keys ka, kb,
// successor keys k1, k2) into the net bundle deltas. All four keys are
// indexed before any write: index may grow the delta array, so writing
// through a stale slice header would miss the reallocation.
//
//sspp:hotpath
func (ws *leapWorkspace) addChannelNu(ka, kb, k1, k2 uint64, w int64) {
	ia, ib := ws.index(ka), ws.index(kb)
	i1, i2 := ws.index(k1), ws.index(k2)
	ws.delta[ia] -= w
	ws.delta[ib] -= w
	ws.delta[i1] += w
	ws.delta[i2] += w
}

// leapOnce attempts one τ-leap of at most budget interactions. It returns
// the number of interactions consumed, or 0 when leaping is not profitable
// here and the caller should step exactly instead.
//
//sspp:hotpath
func (s *System) leapOnce(budget uint64) uint64 {
	if s.diagonal {
		if s.occupied > leapMaxDiagonalStates {
			return 0
		}
	} else if s.occupied > leapMaxPairStates {
		return 0
	}
	ws := &s.lw
	ws.reset()
	s.enumerateChannels()
	pairs := float64(s.n) * float64(s.n-1)
	if len(ws.chanA) == 0 {
		// No reactive channel: the entire budget is silent, but time still
		// passes. (Deterministic dynamics, so this cannot change until churn
		// or injection does.)
		s.clock += budget
		s.accrue(budget)
		return budget
	}

	// τ-selection over the non-critical channels: bound each occupied
	// reactant state's expected (μ) and fluctuating (σ²) per-interaction
	// drift so relative counts move at most ε within the leap.
	var ck [4]uint64
	var cd [4]int64
	for j := range ws.chanA {
		if ws.chanCrit[j] {
			continue
		}
		p := float64(ws.chanMass[j]) / pairs
		m := 0
		for _, e := range [4]struct {
			key uint64
			nu  int64
		}{
			{s.keys[ws.chanA[j]], -1},
			{s.keys[ws.chanB[j]], -1},
			{ws.chanOut1[j], 1},
			{ws.chanOut2[j], 1},
		} {
			merged := false
			for i := 0; i < m; i++ {
				if ck[i] == e.key {
					cd[i] += e.nu
					merged = true
					break
				}
			}
			if !merged {
				ck[m], cd[m] = e.key, e.nu
				m++
			}
		}
		for i := 0; i < m; i++ {
			if cd[i] == 0 {
				continue
			}
			nu := float64(cd[i])
			at := ws.index(ck[i])
			ws.mu[at] += nu * p
			ws.sigma2[at] += nu * nu * p
		}
	}
	leapF := float64(budget)
	for i, key := range ws.keys {
		c := s.Count(key)
		if c <= 0 {
			continue // products not yet present: guarded by the negativity check
		}
		bound := leapEpsilon * float64(c)
		if bound < 1 {
			bound = 1
		}
		if mu := math.Abs(ws.mu[i]); mu > 0 && bound/mu < leapF {
			leapF = bound / mu
		}
		if sg := ws.sigma2[i]; sg > 0 && bound*bound/sg < leapF {
			leapF = bound * bound / sg
		}
	}
	leap := uint64(leapF)
	if leap < leapMinLen {
		return 0
	}

	// Critical channels fire at most once per leap: the interaction index of
	// the first critical firing is geometric in the total critical mass, and
	// a race landing inside the leap truncates it there.
	firstCrit := leap + 1
	if ws.critMass > 0 {
		pc := float64(ws.critMass) / pairs
		u := 1 - s.src.Float64() // (0, 1]
		f := math.Log(u) / math.Log1p(-pc)
		if f < float64(leap) {
			firstCrit = uint64(f) + 1
		}
	}

	for retry := 0; retry < leapMaxRetries; retry++ {
		window := leap
		fireCrit := false
		if firstCrit <= leap {
			window = firstCrit - 1
			fireCrit = true
		}
		ws.resetDeltas()
		w := float64(window)
		for j := range ws.chanA {
			if ws.chanCrit[j] {
				continue
			}
			k := s.src.Poisson(w * float64(ws.chanMass[j]) / pairs)
			if k == 0 {
				continue
			}
			ws.addChannelNu(s.keys[ws.chanA[j]], s.keys[ws.chanB[j]], ws.chanOut1[j], ws.chanOut2[j], k)
		}
		if fireCrit {
			s.fireCritical()
		}
		ok := true
		for i, key := range ws.keys {
			if d := ws.delta[i]; d < 0 && s.Count(key)+d < 0 {
				ok = false
				break
			}
		}
		if ok {
			for i, key := range ws.keys {
				if ws.delta[i] != 0 {
					s.add(key, ws.delta[i])
				}
			}
			consumed := window
			if fireCrit {
				consumed++ // window ≥ leapMinLen when no critical fires, so consumed ≥ 1 always
			}
			s.clock += consumed
			s.accrue(consumed)
			return consumed
		}
		// Overdraw: halve the leap and redraw the bundles.
		leap /= 2
		if leap < leapMinLen {
			return 0
		}
	}
	return 0
}

// enumerateChannels probes every reactive ordered state pair of the current
// configuration into the workspace: reactant slots, pair mass, successor
// keys, and the critical classification (any reactant scarcer than
// leapCritCount). Diagonal models probe only (a, a) pairs; general models
// probe all occ² ordered pairs.
//
//sspp:hotpath
func (s *System) enumerateChannels() {
	if s.diagonal {
		for slot, c := range s.counts {
			if c < 2 {
				continue
			}
			key := s.keys[slot]
			k1, k2 := s.model.React(key, key, s.src)
			if k1 == key && k2 == key {
				continue
			}
			s.pushChannel(int32(slot), int32(slot), c*(c-1), k1, k2, c < leapCritCount)
		}
		return
	}
	for a, ca := range s.counts {
		if ca <= 0 {
			continue
		}
		for b, cb := range s.counts {
			if cb <= 0 || (a == b && ca < 2) {
				continue
			}
			ka, kb := s.keys[a], s.keys[b]
			k1, k2 := s.model.React(ka, kb, s.src)
			if k1 == ka && k2 == kb {
				continue
			}
			mass := ca * cb
			if a == b {
				mass = ca * (ca - 1)
			}
			s.pushChannel(int32(a), int32(b), mass, k1, k2, ca < leapCritCount || cb < leapCritCount)
		}
	}
}

// pushChannel appends one reactive channel to the workspace.
//
//sspp:hotpath
func (s *System) pushChannel(a, b int32, mass int64, k1, k2 uint64, crit bool) {
	ws := &s.lw
	ws.chanA = append(ws.chanA, a)
	ws.chanB = append(ws.chanB, b)
	ws.chanMass = append(ws.chanMass, mass)
	ws.chanOut1 = append(ws.chanOut1, k1)
	ws.chanOut2 = append(ws.chanOut2, k2)
	ws.chanCrit = append(ws.chanCrit, crit)
	if crit {
		ws.critMass += mass
	}
}

// fireCritical picks one critical channel proportional to its mass and folds
// a single firing into the bundle deltas.
//
//sspp:hotpath
func (s *System) fireCritical() {
	ws := &s.lw
	x := int64(s.src.Uint64n(uint64(ws.critMass)))
	for j := range ws.chanA {
		if !ws.chanCrit[j] {
			continue
		}
		if x < ws.chanMass[j] {
			ws.addChannelNu(s.keys[ws.chanA[j]], s.keys[ws.chanB[j]], ws.chanOut1[j], ws.chanOut2[j], 1)
			return
		}
		x -= ws.chanMass[j]
	}
	panic("species: critical-mass race ran past the critical channels")
}
