// golden_test.go pins the agent forms of the keyed baselines (CIW and
// LooseLE) to literal digests: each case builds a seeded instance, applies a
// clean run, an adversary class, a transient burst or a churn sequence, and
// hashes every agent's StateKey in index order at each checkpoint. The
// species forms are pinned by TestSpeciesGolden (internal/species); this
// test is the agent-side counterpart, so a change to a transition, join,
// leave or fault rule that alters a single agent's state changes a digest.

package baseline

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

// keyedAgent is the agent surface the golden cases drive.
type keyedAgent interface {
	sim.Protocol
	sim.StateKeyer
	sim.Injectable
	sim.Churnable
}

// putKeys appends the population size and every agent's state key, in
// index order, to h.
func putKeys(h hash.Hash64, p keyedAgent) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.N()))
	h.Write(buf[:])
	for i := 0; i < p.N(); i++ {
		binary.LittleEndian.PutUint64(buf[:], p.StateKey(i))
		h.Write(buf[:])
	}
}

// TestAgentGolden pins CIW's and LooseLE's agent-level trajectories: a clean
// run, every realizable Inject class followed by a run, InjectTransient
// bursts, and a join/leave sequence cycling through every join class (with
// CIW's leaves exercising the stranded-rank clamp).
func TestAgentGolden(t *testing.T) {
	const (
		n     = 48
		tau   = int32(10)
		steps = 6_000
	)
	protos := []struct {
		name   string
		build  func() keyedAgent
		inject []string
		joins  []string
		golden map[string]uint64
	}{
		{
			name:   "ciw",
			build:  func() keyedAgent { return NewCIW(n) },
			inject: []string{"clean-rankers", "two-leaders", "no-leader", "duplicate-ranks", "random-garbage"},
			joins:  []string{"", "clean-rankers", "random-garbage", "duplicate-ranks"},
			golden: map[string]uint64{
				"clean":                  0x1c0a8417a8f0b0a,
				"transient":              0x23165f046a09cebd,
				"churn":                  0x362ed1db78d51304,
				"inject/clean-rankers":   0x23aa3bf4afdd4d3d,
				"inject/two-leaders":     0x6ecbff906c93df46,
				"inject/no-leader":       0xd926e71fc8ecafc3,
				"inject/duplicate-ranks": 0xe1c3838a313c206d,
				"inject/random-garbage":  0xd4cca72c75fc47c6,
			},
		},
		{
			name:   "loosele",
			build:  func() keyedAgent { return NewLooseLE(n, tau) },
			inject: []string{"no-leader", "two-leaders", "random-garbage"},
			joins:  []string{"", "no-leader", "two-leaders", "random-garbage"},
			golden: map[string]uint64{
				"clean":                 0x8b03f69c00967c6b,
				"transient":             0x474ace85b9ae79e9,
				"churn":                 0x62d6e36027cbc1a6,
				"inject/no-leader":      0x9e1fbf80ba427acc,
				"inject/two-leaders":    0xb4b2ed3607a62990,
				"inject/random-garbage": 0xf10ae9c85fcd3ef8,
			},
		},
	}
	for _, pr := range protos {
		type goldenCase struct {
			name string
			run  func(t *testing.T, h hash.Hash64, p keyedAgent)
		}
		cases := []goldenCase{
			{"clean", func(t *testing.T, h hash.Hash64, p keyedAgent) {
				sim.Steps(p, rng.New(1), steps)
				putKeys(h, p)
			}},
			{"transient", func(t *testing.T, h hash.Hash64, p keyedAgent) {
				src := rng.New(3)
				sim.Steps(p, rng.New(2), steps)
				for _, k := range []int{1, 5, n + 3} {
					for _, i := range p.InjectTransient(k, src) {
						h.Write([]byte{byte(i)})
					}
					putKeys(h, p)
					sim.Steps(p, rng.New(uint64(k)), steps)
					putKeys(h, p)
				}
			}},
			{"churn", func(t *testing.T, h hash.Hash64, p keyedAgent) {
				src, sched := rng.New(5), rng.New(6)
				for round := 0; round < 40; round++ {
					sim.Steps(p, sched, 200)
					if round >= 20 {
						// Three leaves per join shrink the population,
						// stranding CIW's top ranks.
						for k := 0; k < 3; k++ {
							if err := p.Leave(src); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := p.Join(pr.joins[round%len(pr.joins)], src); err != nil {
						t.Fatal(err)
					}
					putKeys(h, p)
				}
			}},
		}
		for _, class := range pr.inject {
			cases = append(cases, goldenCase{"inject/" + class, func(t *testing.T, h hash.Hash64, p keyedAgent) {
				if err := p.Inject(class, rng.New(4)); err != nil {
					t.Fatal(err)
				}
				putKeys(h, p)
				sim.Steps(p, rng.New(7), steps)
				putKeys(h, p)
			}})
		}
		for _, c := range cases {
			t.Run(pr.name+"/"+c.name, func(t *testing.T) {
				h := fnv.New64a()
				c.run(t, h, pr.build())
				got := h.Sum64()
				want, ok := pr.golden[c.name]
				if !ok {
					t.Errorf("no golden digest; got %#x", got)
				} else if got != want {
					t.Errorf("digest %#x, want %#x", got, want)
				}
			})
		}
	}
}

// TestKeyedSpeciesChurnGolden pins the species forms' churn hooks (the join
// classes and CIW's rescale clamp), which TestSpeciesGolden does not reach:
// the population first grows through every join class, then shrinks by
// three leaves per join, and the (key, count) multiset is hashed in slot
// order after every event group, together with the state key of every
// agent that left.
func TestKeyedSpeciesChurnGolden(t *testing.T) {
	cases := []struct {
		name  string
		model sim.CompactModel
		joins []string
		want  uint64
	}{
		{"ciw", NewCIW(48).Compact(), []string{"", "clean-rankers", "random-garbage", "duplicate-ranks"}, 0x5f8d46ecbfbcda0c},
		{"loosele", NewLooseLE(48, 10).Compact(), []string{"", "no-leader", "two-leaders", "random-garbage"}, 0xfa78204d904b9424},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := species.NewSystem(c.model, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.BindSource(rng.New(8))
			src := rng.New(9)
			h := fnv.New64a()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			for round := 0; round < 40; round++ {
				s.StepMany(300)
				if round >= 20 {
					for k := 0; k < 3; k++ {
						put(leaveKey(s, src))
						if err := s.Leave(src); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := s.Join(c.joins[round%len(c.joins)], src); err != nil {
					t.Fatal(err)
				}
				s.Each(func(key uint64, n int64) bool {
					put(key)
					put(uint64(n))
					return true
				})
				put(s.Clock())
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("digest %#x, want %#x", got, c.want)
			}
		})
	}
}

// leaveKey returns the state key of the agent the next s.Leave(src)
// removes: it replays Leave's count-weighted draw on a copy of src over
// s.Each, whose order Leave walks too.
func leaveKey(s *species.System, src *rng.PRNG) uint64 {
	probe := *src
	u := int64(probe.Uint64n(uint64(s.N())))
	var key uint64
	s.Each(func(k uint64, c int64) bool {
		if u < c {
			key = k
			return false
		}
		u -= c
		return true
	})
	return key
}
