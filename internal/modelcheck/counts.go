package modelcheck

import (
	"fmt"

	"sspp/internal/sim"
)

// maxCountBytes bounds the memory of a count-vector run: its configurations
// times the keys in the domain (one count byte per key and configuration).
const maxCountBytes = 1 << 25

// CountReport is the result of a count-vector analysis.
type CountReport struct {
	Configurations int  // multisets of n keys from the domain
	Silent         int  // configurations where React returns every present pair as it was
	Target         int  // configurations in the target set
	TargetSilent   bool // every target configuration is silent
	Unreached      int  // configurations that cannot reach the target set
}

// CheckCounts is the count-vector explorer. Agents are anonymous, so a
// configuration in species form is a multiset of keys, as the species engine
// runs it; CheckCounts enumerates every multiset of n ∈ [2, 255] keys from
// [lo, hi] under the deterministic model m. Its successors are the present
// ordered key pairs (a ≠ b held once each, a = b twice) through m.React; it
// is silent only when React returns each such pair as it was (a swap keeps
// the multiset but changes agents). Reachability is computed backward.
func CheckCounts(m sim.CompactModel, n int, lo, hi uint64, target func(sim.CountView) bool) (CountReport, error) {
	d := int(min(hi-lo, maxCountBytes)) + 1 // keys in the domain
	total := 1                              // C(n+d−1, n), built up as C(d−1+i, i)
	for i := 1; i <= min(n, 255) && lo <= hi && total*d <= maxCountBytes; i++ {
		total = total * (d - 1 + i) / i
	}
	if !m.Deterministic || n < 2 || n > 255 || lo > hi || total*d > maxCountBytes {
		return CountReport{}, fmt.Errorf("modelcheck: no count-vector analysis of %d agents over keys [%d, %d] (deterministic: %v; at most %d configurations × keys)", n, lo, hi, m.Deterministic, maxCountBytes)
	}
	v := countView{lo: lo, c: make([]byte, d)}
	ids, all := make(map[string]int32, total), make([]string, 0, total)
	var fill func(k, left int)
	fill = func(k, left int) { // keys from index k on hold the left agents
		if k == d-1 {
			v.c[k] = byte(left)
			ids[string(v.c)] = int32(len(all))
			all = append(all, string(v.c))
			return
		}
		for x := range left + 1 {
			v.c[k] = byte(x)
			fill(k+1, left-x)
		}
	}
	fill(0, n)
	rep := CountReport{Configurations: total, TargetSilent: true}
	preds, reach := make([][]int32, total), make([]bool, total)
	var stack []int32
	for id, s := range all {
		copy(v.c, s)
		if reach[id] = target(&v); reach[id] {
			stack = append(stack, int32(id))
		}
		silent := true
		for a := range v.c {
			for b := range v.c {
				if v.c[a] == 0 || v.c[b] == 0 || a == b && v.c[a] < 2 {
					continue
				}
				ka, kb := lo+uint64(a), lo+uint64(b)
				ra, rb := m.React(ka, kb, nil)
				if ra == ka && rb == kb {
					continue
				}
				if silent = false; ra-lo > hi-lo || rb-lo > hi-lo {
					return CountReport{}, fmt.Errorf("modelcheck: React(%d, %d) = (%d, %d) leaves the key domain [%d, %d]", ka, kb, ra, rb, lo, hi)
				}
				v.c[a]--
				v.c[b]--
				v.c[ra-lo]++
				v.c[rb-lo]++
				if succ := ids[string(v.c)]; succ != int32(id) {
					preds[succ] = append(preds[succ], int32(id))
				}
				copy(v.c, s)
			}
		}
		if silent {
			rep.Silent++
		} else if reach[id] {
			rep.TargetSilent = false
		}
	}
	rep.Target, rep.Unreached = len(stack), total-len(stack)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[id] {
			if !reach[p] {
				reach[p] = true
				rep.Unreached--
				stack = append(stack, p)
			}
		}
	}
	return rep, nil
}

// countView is the sim.CountView of one configuration: c[k] agents hold key
// lo+k.
type countView struct {
	lo uint64
	c  []byte
}

func (v *countView) N() (n int) {
	v.Each(func(_ uint64, c int64) bool { n += int(c); return true })
	return n
}

func (v *countView) Occupied() (occupied int) {
	v.Each(func(uint64, int64) bool { occupied++; return true })
	return occupied
}

func (v *countView) Count(key uint64) int64 {
	if key-v.lo < uint64(len(v.c)) {
		return int64(v.c[key-v.lo])
	}
	return 0
}

func (v *countView) Each(fn func(key uint64, count int64) bool) {
	for k, c := range v.c {
		if c > 0 && !fn(v.lo+uint64(k), int64(c)) {
			return
		}
	}
}
