// sampler.go implements the dynamic weighted sampler at the heart of the
// species engine: Walker/Vose alias-table sampling over a snapshot of the
// weights, kept current under incremental updates by a side buffer plus
// rejection. Between rebuilds a weight decrease is O(1), absorbed by
// rejecting stale alias draws; a weight increase accumulates in the side
// buffer, in O(1) while the buffer is short enough to scan and in
// O(log side) once a Fenwick tree indexes its excesses. The table is
// rebuilt (amortized) when the stale mass or the side buffer would degrade
// the acceptance rate.
//
// Correctness sketch: one attempt draws a point x uniform in
// [0, sideTotal + baseTotal). The side branch (x < sideTotal) returns slot i
// with probability (live[i]-base[i])⁺ / (sideTotal+baseTotal); the alias
// branch proposes slot i with probability base[i] / (sideTotal+baseTotal)
// and accepts with min(live[i], base[i]) / base[i]. Summing, an attempt
// returns slot i with probability live[i] / (sideTotal+baseTotal) and fails
// with the remaining mass, so conditioned on success the draw is exactly
// live-weighted. The rebuild policy keeps sideTotal+baseTotal ≤ 2·total, so
// the success probability stays ≥ 1/2: an alias-branch draw is O(1) and a
// side-branch draw O(min(side, sideScanMax) + log side) expected.
//
// The side branch returns the first side-buffer entry, in order of first
// excess, at which the running sum of excesses passes x. A short buffer is
// scanned for it; past sideScanMax entries the Fenwick descent finds the
// same entry, so the draws do not depend on which of the two computes it.

package species

import (
	"fmt"
	"math/bits"
	"slices"

	"sspp/internal/rng"
)

// sideScanMax is the longest side buffer the side branch scans. Keeping a
// Fenwick tree costs O(log side) on every excess change, which a short scan
// undercuts (CIW's side buffer, for one, stays near a dozen entries); the
// tree is built when the buffer grows past this length.
const sideScanMax = 64

// sampler draws slot indices with probability proportional to live integer
// weights. The zero value is an empty sampler; grow it with ensure and set
// weights with set. Not safe for concurrent use.
type sampler struct {
	live  []int64 // current weight per slot
	total int64   // Σ live

	// Snapshot taken at the last rebuild.
	base      []int64 // weight per slot at build time (0 for slots added later)
	baseTotal int64   // Σ base

	// Side buffer: slots whose live weight has exceeded their base snapshot
	// since the last rebuild, in order of first excess. An entry stays when
	// its excess falls back to 0. The Fenwick tree weights side positions
	// by max(0, live-base); it is empty while len(side) ≤ sideScanMax.
	side      []int32 // candidate slots (may contain stale entries)
	sidePos   []int32 // per-slot position in side, -1 when absent
	fen       []int64 // Fenwick tree over side positions
	sideTotal int64   // Σ max(0, live-base)

	// Alias table over the slots with positive base weight.
	aliasSlot []int32   // slot id per table entry
	aliasAlt  []int32   // alias entry index per table entry
	aliasProb []float64 // acceptance threshold per table entry

	// Rebuild scratch, kept so that a rebuild allocates nothing once warm.
	scaled       []float64
	small, large []int32
}

// ensure grows the per-slot arrays to hold slot ids < n.
func (sa *sampler) ensure(n int) {
	for len(sa.live) < n {
		sa.live = append(sa.live, 0)
		sa.base = append(sa.base, 0)
		sa.sidePos = append(sa.sidePos, -1)
	}
}

// set updates slot's live weight to w ≥ 0: O(1) amortized, plus
// O(log side) when the slot's excess over its snapshot changes while the
// Fenwick tree is kept.
func (sa *sampler) set(slot int32, w int64) {
	old := sa.live[slot]
	if w == old {
		return
	}
	sa.total += w - old
	b := sa.base[slot]
	oldEx, newEx := old-b, w-b
	if oldEx < 0 {
		oldEx = 0
	}
	if newEx < 0 {
		newEx = 0
	}
	sa.live[slot] = w
	if newEx != oldEx {
		sa.sideTotal += newEx - oldEx
		// A slot outside the side buffer has no excess (oldEx = 0), so a
		// change there is a first excess: append it.
		if p := sa.sidePos[slot]; p >= 0 {
			sa.fenAdd(p, newEx-oldEx)
		} else {
			sa.pushSide(slot, newEx)
		}
	}
	if sa.stale() {
		sa.rebuild()
	}
}

// stale reports whether the snapshot has drifted enough to hurt the
// acceptance rate (attempt mass > 2·live mass) or the side buffer has grown
// past its budget (32 + a quarter of the alias table).
func (sa *sampler) stale() bool {
	if sa.total > 0 && sa.baseTotal+sa.sideTotal > 2*sa.total {
		return true
	}
	return len(sa.side) > 32+len(sa.aliasSlot)/4
}

// rebuild snapshots the live weights and rebuilds the alias table (Vose's
// algorithm) over the slots with positive weight. O(occupied slots).
func (sa *sampler) rebuild() {
	for _, s := range sa.side {
		sa.sidePos[s] = -1
	}
	sa.side = sa.side[:0]
	sa.fen = sa.fen[:0]
	sa.sideTotal = 0

	m := 0
	for i, w := range sa.live {
		sa.base[i] = w
		if w > 0 {
			m++
		}
	}
	sa.baseTotal = sa.total
	sa.aliasSlot = sa.aliasSlot[:0]
	sa.aliasAlt = sa.aliasAlt[:0]
	sa.aliasProb = sa.aliasProb[:0]
	if m == 0 {
		return
	}
	// Vose's alias method over the occupied slots: scaled[i] = w_i·m/total;
	// entries below 1 take an alias from entries above 1. Every entry's
	// alias and threshold are written below, so the reused buffers need no
	// clearing.
	scaled := sa.scaled[:0]
	for i, w := range sa.live {
		if w > 0 {
			sa.aliasSlot = append(sa.aliasSlot, int32(i))
			scaled = append(scaled, float64(w)*float64(m)/float64(sa.total))
		}
	}
	sa.aliasAlt = slices.Grow(sa.aliasAlt[:0], m)[:m]
	sa.aliasProb = slices.Grow(sa.aliasProb[:0], m)[:m]
	small, large := sa.small[:0], sa.large[:0]
	for i := range scaled {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		sa.aliasProb[s] = scaled[s]
		sa.aliasAlt[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		sa.aliasProb[i] = 1
		sa.aliasAlt[i] = i
	}
	for _, i := range small { // numeric leftovers; scaled[i] ≈ 1
		sa.aliasProb[i] = 1
		sa.aliasAlt[i] = i
	}
	sa.scaled, sa.small, sa.large = scaled, small, large
}

// pushSide appends slot, whose live weight is current, to the side buffer
// with excess ex, and builds the Fenwick tree when the buffer outgrows
// sideScanMax.
func (sa *sampler) pushSide(slot int32, ex int64) {
	sa.sidePos[slot] = int32(len(sa.side))
	sa.side = append(sa.side, slot)
	switch {
	case len(sa.fen) > 0:
		sa.fenPush(ex)
	case len(sa.side) > sideScanMax:
		for _, s := range sa.side {
			sa.fenPush(max(0, sa.live[s]-sa.base[s]))
		}
	}
}

// fenPush appends a Fenwick node for the next side position, with excess
// ex. Node i (1-based) covers positions (i − lowbit(i), i]: ex plus the
// nodes that tile the rest of that range.
func (sa *sampler) fenPush(ex int64) {
	i := len(sa.fen) + 1
	for j := i - 1; j > i&(i-1); j &= j - 1 {
		ex += sa.fen[j-1]
	}
	sa.fen = append(sa.fen, ex)
}

// fenAdd adds d to the excess at side position p (a no-op while the tree
// is not kept).
//
//sspp:hotpath
func (sa *sampler) fenAdd(p int32, d int64) {
	for i := int(p) + 1; i <= len(sa.fen); i += i & -i {
		sa.fen[i-1] += d
	}
}

// sideFind returns the first side position at which the running sum of
// excesses exceeds x, for 0 ≤ x < sideTotal, while the Fenwick tree is
// kept: the descent walks the tree from its largest power-of-two node,
// skipping every prefix whose sum is at most x.
//
//sspp:hotpath
func (sa *sampler) sideFind(x int64) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(sa.fen))) - 1); step > 0; step >>= 1 {
		if next := pos + step; next <= len(sa.fen) && sa.fen[next-1] <= x {
			pos = next
			x -= sa.fen[next-1]
		}
	}
	return pos
}

// audit checks the side buffer against a recount: every slot with positive
// excess is in it, its positions are consistent, and each Fenwick node
// holds the sum of the excesses it covers.
func (sa *sampler) audit() error {
	nodes := 0
	if len(sa.side) > sideScanMax {
		nodes = len(sa.side)
	}
	if len(sa.fen) != nodes {
		return fmt.Errorf("species: sampler tree has %d nodes for %d side entries", len(sa.fen), len(sa.side))
	}
	listed := 0
	for slot, p := range sa.sidePos {
		if p < 0 {
			if sa.live[slot] > sa.base[slot] {
				return fmt.Errorf("species: slot %d has excess %d but is not in the side buffer", slot, sa.live[slot]-sa.base[slot])
			}
			continue
		}
		listed++
		if int(p) >= len(sa.side) || sa.side[p] != int32(slot) {
			return fmt.Errorf("species: slot %d claims side position %d", slot, p)
		}
	}
	if listed != len(sa.side) {
		return fmt.Errorf("species: %d slots claim the %d side entries", listed, len(sa.side))
	}
	prefix := make([]int64, len(sa.side)+1)
	for p, slot := range sa.side {
		prefix[p+1] = prefix[p] + max(0, sa.live[slot]-sa.base[slot])
	}
	if prefix[len(sa.side)] != sa.sideTotal {
		return fmt.Errorf("species: sampler side total %d, recount %d", sa.sideTotal, prefix[len(sa.side)])
	}
	for i := 1; i <= len(sa.fen); i++ {
		if want := prefix[i] - prefix[i&(i-1)]; sa.fen[i-1] != want {
			return fmt.Errorf("species: sampler tree node %d holds %d, recount %d", i, sa.fen[i-1], want)
		}
	}
	return nil
}

// sample draws a slot with probability live[slot]/total. The caller must
// ensure total > 0.
//
//sspp:hotpath
func (sa *sampler) sample(src *rng.PRNG) int32 {
	for {
		x := int64(src.Uint64n(uint64(sa.sideTotal + sa.baseTotal)))
		if x < sa.sideTotal {
			if len(sa.fen) > 0 {
				return sa.side[sa.sideFind(x)]
			}
			// A short side buffer is scanned: the same first entry at
			// which the running sum of excesses passes x.
			for _, s := range sa.side {
				ex := sa.live[s] - sa.base[s]
				if ex <= 0 {
					continue
				}
				if x < ex {
					return s
				}
				x -= ex
			}
			panic("species: sampler side total exceeds the side buffer's excess")
		}
		// Alias branch over the base snapshot, rejection against live.
		e := src.Intn(len(sa.aliasSlot))
		if src.Float64() >= sa.aliasProb[e] {
			e = int(sa.aliasAlt[e])
		}
		slot := sa.aliasSlot[e]
		b, l := sa.base[slot], sa.live[slot]
		if l >= b || int64(src.Uint64n(uint64(b))) < l {
			return slot
		}
		// Rejected stale mass; retry (acceptance ≥ 1/2 by the rebuild policy).
	}
}
