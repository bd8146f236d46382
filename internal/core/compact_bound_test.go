// compact_bound_test.go pins the bound behind ElectLeader_r's declared
// species state space. Its keys are recycled intern-table ids, and the live
// table never exceeds the occupied states plus the two successors a reaction
// interns before the engine reaps the pair it consumed, so every id stays
// below n + 2 — the StateSpace that lets the engine use its dense key table.
// The tests watch every key the model hands the engine (a fresh id is always
// handed out at once, so the largest key seen is the table's id high-water
// mark) from clean, adversarial and churned starts.

package core_test

import (
	"testing"

	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

// watchKeys wraps the model's key-producing hooks so *top tracks the
// largest key produced: the intern table's id high-water mark.
func watchKeys(m sim.CompactModel, top *uint64) sim.CompactModel {
	see := func(key uint64) uint64 {
		*top = max(*top, key)
		return key
	}
	init, react, join := m.Init, m.React, m.Churn.Join
	m.Init = func() ([]uint64, []int64) {
		keys, counts := init()
		for _, k := range keys {
			see(k)
		}
		return keys, counts
	}
	m.React = func(a, b uint64, src *rng.PRNG) (uint64, uint64) {
		k1, k2 := react(a, b, src)
		return see(k1), see(k2)
	}
	churn := *m.Churn
	churn.Join = func(class string, n int, v sim.CountView, src *rng.PRNG) (uint64, error) {
		k, err := join(class, n, v, src)
		return see(k), err
	}
	m.Churn = &churn
	return m
}

// compactFrom compacts a fresh instance after applying the adversary class.
func compactFrom(t *testing.T, n, r int, seed uint64, class adversary.Class) sim.CompactModel {
	t.Helper()
	p, err := core.New(n, r, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.Apply(p, class, rng.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	return p.Compact()
}

func TestCompactKeysStayBelowStateSpace(t *testing.T) {
	const n, r = 96, 8
	cases := []struct {
		name  string
		model func(t *testing.T) sim.CompactModel
		storm bool
	}{
		{"clean", func(t *testing.T) sim.CompactModel {
			m, err := core.CompactClean(n, r, core.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, false},
		{"triggered", func(t *testing.T) sim.CompactModel { return compactFrom(t, n, r, 2, adversary.ClassTriggered) }, false},
		{"random-garbage", func(t *testing.T) sim.CompactModel { return compactFrom(t, n, r, 3, adversary.ClassRandomGarbage) }, false},
		{"replacement-storm", func(t *testing.T) sim.CompactModel {
			m, err := core.CompactClean(n, r, core.WithSeed(4))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var top uint64
			m := c.model(t)
			if m.StateSpace != n+2 {
				t.Fatalf("declared state space %d, want n+2 = %d", m.StateSpace, n+2)
			}
			s, err := species.NewSystem(watchKeys(m, &top), 1)
			if err != nil {
				t.Fatal(err)
			}
			s.BindSource(rng.New(5))
			src := rng.New(6)
			classes := []string{"", "triggered", "clean-rankers"}
			peak := 0
			for round := 0; round < 400; round++ {
				s.StepMany(250)
				peak = max(peak, s.Occupied())
				if !c.storm {
					continue
				}
				// A burst of replacements: every leave precedes its join,
				// as the workload orders them within an instant.
				k := 1 + src.Intn(8)
				for i := 0; i < k; i++ {
					if err := s.Leave(src); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < k; i++ {
					if err := s.Join(classes[(round+i)%len(classes)], src); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatal(err)
			}
			if top >= m.StateSpace {
				t.Fatalf("intern ids reached %d, declared state space %d", top, m.StateSpace)
			}
			// The run must press on the bound for the check to mean
			// anything: most agents in states of their own.
			if peak < n/2 {
				t.Fatalf("peak occupancy %d of n=%d: the run never approached the bound", peak, n)
			}
			t.Logf("id high-water %d, peak occupancy %d, state space %d", top, peak, m.StateSpace)
		})
	}
}
