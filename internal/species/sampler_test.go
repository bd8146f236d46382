package species

import (
	"strings"
	"testing"

	"sspp/internal/rng"
)

// scanSample is the side-branch linear scan the sampler used before its
// Fenwick tree, kept as the reference: the same PRNG stream must yield the
// same slot from both.
func scanSample(sa *sampler, src *rng.PRNG) int32 {
	for {
		x := int64(src.Uint64n(uint64(sa.sideTotal + sa.baseTotal)))
		if x < sa.sideTotal {
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
			continue
		}
		e := src.Intn(len(sa.aliasSlot))
		if src.Float64() >= sa.aliasProb[e] {
			e = int(sa.aliasAlt[e])
		}
		slot := sa.aliasSlot[e]
		b, l := sa.base[slot], sa.live[slot]
		if l >= b || int64(src.Uint64n(uint64(b))) < l {
			return slot
		}
	}
}

// TestSamplerMatchesScanReference drives random weight updates through the
// sampler in the shape the engine produces them — count changes on occupied
// slots, slots emptied onto a free list and reused for fresh states, new
// slots appended — and checks every draw, and the stream position after it,
// against the reference scan fed a copy of the same stream. The sequence
// must pass through rebuilds, scanned and Fenwick-indexed side buffers, and
// side entries whose excess has fallen back to zero.
func TestSamplerMatchesScanReference(t *testing.T) {
	src := rng.New(21)
	ops := rng.New(22)
	var sa sampler
	var free, used []int32
	var rebuilds, scanned, indexed, staleSide, reused int
	alloc := func() int32 {
		if k := len(free); k > 0 {
			slot := free[k-1]
			free = free[:k-1]
			if sa.sidePos[slot] >= 0 {
				reused++
			}
			return slot
		}
		slot := int32(len(sa.live))
		sa.ensure(len(sa.live) + 1)
		used = append(used, slot)
		return slot
	}
	for i := 0; i < 2000; i++ {
		sa.set(alloc(), 1+int64(ops.Intn(20)))
	}
	for step := 0; step < 40_000; step++ {
		built := len(sa.side) == 0 && sa.baseTotal > 0
		slot := used[ops.Intn(len(used))]
		switch w := sa.live[slot]; {
		case w == 0:
			if ops.Intn(4) == 0 {
				sa.set(alloc(), 1+int64(ops.Intn(30)))
			}
		case ops.Intn(8) == 0:
			sa.set(slot, 0)
			free = append(free, slot)
		default:
			sa.set(slot, max(1, w+int64(ops.Intn(7))-3))
		}
		if !built && len(sa.side) == 0 {
			rebuilds++
		}
		if len(sa.fen) > 0 {
			indexed++
		} else if len(sa.side) > 0 {
			scanned++
		}
		for _, s := range sa.side {
			if sa.live[s] <= sa.base[s] {
				staleSide++
				break
			}
		}
		if err := sa.audit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for d := 0; d < 3; d++ {
			ref := *src
			got, want := sa.sample(src), scanSample(&sa, &ref)
			if got != want || *src != ref {
				t.Fatalf("step %d draw %d: slot %d, reference scan %d", step, d, got, want)
			}
		}
	}
	if rebuilds == 0 || scanned == 0 || indexed == 0 || staleSide == 0 || reused == 0 {
		t.Fatalf("sequence missed a case: %d rebuilds, %d scanned and %d indexed steps, %d stale-entry steps, %d reused side slots",
			rebuilds, scanned, indexed, staleSide, reused)
	}
}

// TestSamplerAuditCatchesCorruption: the audit SelfCheck runs must notice a
// Fenwick node, a side position or a side total that no longer matches the
// recounted excesses.
func TestSamplerAuditCatchesCorruption(t *testing.T) {
	build := func() *sampler {
		sa := &sampler{}
		sa.ensure(400)
		for i := 0; i < 400; i++ {
			sa.set(int32(i), 100)
		}
		sa.rebuild()
		for i := 0; i < 100; i++ {
			sa.set(int32(i), 150)
		}
		if len(sa.fen) == 0 {
			t.Fatal("side buffer of 100 entries is not indexed")
		}
		if err := sa.audit(); err != nil {
			t.Fatal(err)
		}
		return sa
	}
	cases := []struct {
		name    string
		corrupt func(sa *sampler)
		want    string
	}{
		{"tree node", func(sa *sampler) { sa.fen[5]++ }, "tree node"},
		{"side position", func(sa *sampler) { sa.sidePos[3], sa.sidePos[4] = 4, 3 }, "side position"},
		{"side total", func(sa *sampler) { sa.sideTotal-- }, "side total"},
		{"missing entry", func(sa *sampler) { sa.live[300] = 101 }, "not in the side buffer"},
	}
	for _, c := range cases {
		sa := build()
		c.corrupt(sa)
		if err := sa.audit(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: audit returned %v, want an error about %q", c.name, err, c.want)
		}
	}
}

// TestSamplerRebuildReusesBuffers: once its buffers have grown, a rebuild
// allocates nothing.
func TestSamplerRebuildReusesBuffers(t *testing.T) {
	var sa sampler
	sa.ensure(1000)
	src := rng.New(5)
	for i := 0; i < 1000; i++ {
		sa.set(int32(i), 1+int64(src.Intn(50)))
	}
	sa.rebuild()
	allocs := testing.AllocsPerRun(100, func() {
		sa.set(int32(src.Intn(1000)), 1+int64(src.Intn(50)))
		sa.rebuild()
	})
	if allocs != 0 {
		t.Fatalf("warm rebuild allocates %.1f times, want 0", allocs)
	}
}
