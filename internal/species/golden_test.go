// golden_test.go pins species-backend results to literal digests: each case
// steps a seeded System and hashes its (key, count) multiset in slot order,
// its clock, its occupied count and the next draw of the bound sampling
// stream. Any change to pair sampling, slot recycling, key lookup or the
// stepping paths that alters a single draw changes a digest, so engine
// optimisations must leave every case bit-identical.

package species_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sspp/internal/adversary"
	"sspp/internal/baseline"
	"sspp/internal/coin"
	"sspp/internal/core"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

// speciesDigest hashes everything a species run's future depends on: the
// occupied (key, count) pairs in slot order, the clock, the occupied count
// and the next draw of src, the stream bound to s.
func speciesDigest(s *species.System, src *rng.PRNG) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s.Each(func(key uint64, c int64) bool {
		put(key)
		put(uint64(c))
		return true
	})
	put(s.Clock())
	put(uint64(s.Occupied()))
	put(src.Uint64())
	return h.Sum64()
}

// electTriggered is ElectLeader_r's species form compacted from an instance
// in the triggered adversarial configuration.
func electTriggered(t *testing.T, n, r int, seed uint64) sim.CompactModel {
	t.Helper()
	p, err := core.New(n, r, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.Apply(p, adversary.ClassTriggered, rng.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	return p.Compact()
}

// churnReplacements steps s in chunks and replaces one agent between chunks
// (a leave, then a join of the given classes in turn), the shape of a
// fixed-size churn workload.
func churnReplacements(t *testing.T, s *species.System, src *rng.PRNG, rounds int, chunk uint64, classes ...string) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		s.StepMany(chunk)
		if err := s.Leave(src); err != nil {
			t.Fatal(err)
		}
		if err := s.Join(classes[i%len(classes)], src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpeciesGolden pins each stepping path of the engine to a digest
// recorded before the side-buffer Fenwick tree and the lazy dense key table
// were introduced.
func TestSpeciesGolden(t *testing.T) {
	cases := []struct {
		name  string
		model func(t *testing.T) sim.CompactModel
		steps uint64
		churn bool
		want  uint64
	}{
		{"electleader-clean", func(t *testing.T) sim.CompactModel {
			m, err := core.CompactClean(600, 16, core.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, 60_000, false, 0x75defa18b9962f31},
		{"electleader-triggered", func(t *testing.T) sim.CompactModel {
			return electTriggered(t, 200, 8, 5)
		}, 200_000, false, 0x5282e1303c96a3b},
		{"looseLE", func(*testing.T) sim.CompactModel {
			return baseline.NewLooseLE(5000, 40).Compact()
		}, 200_000, false, 0x40c001d60b53e701},
		{"namerank", func(*testing.T) sim.CompactModel {
			return baseline.NewNameRank(300, coin.FromPRNG(rng.New(7))).Compact()
		}, 100_000, false, 0x4bbb460d4035407f},
		{"ciw", func(*testing.T) sim.CompactModel {
			return baseline.NewCIW(20_000).Compact()
		}, 40_000_000, false, 0x6b9e8590c8c5f542},
		{"electleader-churn", func(t *testing.T) sim.CompactModel {
			m, err := core.CompactClean(300, 12, core.WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, 0, true, 0x3299540165420e1e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := species.NewSystem(c.model(t), 1)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(0x5eed)
			s.BindSource(src)
			if c.churn {
				churnReplacements(t, s, rng.New(0xc0de), 200, 300, "", "triggered", "clean-rankers")
			} else {
				s.StepMany(c.steps)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatal(err)
			}
			if got := speciesDigest(s, src); got != c.want {
				t.Errorf("digest %#x, want %#x", got, c.want)
			}
		})
	}
}
