package sspp

import (
	"math"
	"testing"
)

// FuzzSystem drives the public construction and run surface with small
// arbitrary inputs: any registry protocol (or an unknown name), backend,
// clock and topology, n ≤ 16, any r, seed and coin mode, an adversary class,
// a transient burst size (negative included) and a one- or two-phase
// workload, all within a budget of 10⁴ interactions. New, Inject,
// InjectTransient, Run with the workload, StepSched and a one-cell Ensemble
// may reject an input with an error; none of them may panic. Parallel time
// stays finite and never decreases across Run and StepSched, and a
// churn-free discrete system reads exactly Interactions()/N().
func FuzzSystem(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(16), int8(4), uint64(1), false, uint8(0), int8(2), uint8(0x09), uint16(4000))
	f.Add(uint8(1), uint8(2), uint8(2), uint8(0), uint8(12), int8(0), uint64(7), false, uint8(1), int8(3), uint8(0x8b), uint16(9999))
	f.Add(uint8(2), uint8(1), uint8(3), uint8(1), uint8(9), int8(-1), uint64(3), true, uint8(2), int8(-5), uint8(0x52), uint16(2500))
	f.Add(uint8(3), uint8(3), uint8(1), uint8(0x1b), uint8(10), int8(2), uint64(11), false, uint8(3), int8(1), uint8(0xa3), uint16(800))
	f.Add(uint8(4), uint8(0), uint8(4), uint8(0x7c), uint8(16), int8(40), uint64(5), true, uint8(9), int8(16), uint8(0x2d), uint16(6000))
	f.Add(uint8(6), uint8(4), uint8(0), uint8(2), uint8(1), int8(1), uint64(0), false, uint8(0), int8(0), uint8(0xf6), uint16(0))
	// A discrete Run of one interaction, then StepSched(64) at n = 14: the
	// clock must read 65/14, not 1/14 + 64/14.
	f.Add(uint8('z'), uint8('V'), uint8('t'), uint8('T'), uint8(14), int8(-11), uint64(44), false, uint8(1), int8(42), uint8('M'), uint16(0))

	var protos []string
	for _, info := range Protocols() {
		protos = append(protos, info.Name)
	}
	protos = append(protos, "", "no-such-protocol")
	backends := []string{"", BackendAgent, BackendSpecies, BackendAuto, "no-such-backend"}
	clocks := []string{"", ClockDiscrete, ClockContinuous, ClockContinuousExact, "no-such-clock"}
	classes := append([]Adversary{""}, AdversaryClasses()...)
	classes = append(classes, "no-such-class")

	f.Fuzz(func(t *testing.T, proto, backend, clock, topo, n uint8, r int8, seed uint64, coins bool,
		adv uint8, k int8, wl uint8, budget uint16) {
		var top Topology
		switch param := int(topo >> 3); topo % 5 {
		case 1:
			top = Ring()
		case 2:
			top = Torus2D()
		case 3:
			top = RandomRegular(param % 6)
		case 4:
			top = ErdosRenyi(float64(param) / 31)
		}
		class := classes[int(adv)%len(classes)]
		max := 1 + uint64(budget)%10_000
		// The low and middle three bits of wl pick the two phases (the second
		// may be absent); the top bit routes the workload, rather than the
		// transient burst, into the Ensemble.
		phase := func(kind uint8) []WorkloadPhase {
			at := max / 2
			switch kind % 8 {
			case 1:
				return []WorkloadPhase{TransientBurst(at, int(k), seed)}
			case 2:
				return []WorkloadPhase{Reinjection(at, class, seed)}
			case 3:
				return []WorkloadPhase{ReplacementChurn(0, 0, 1, class, seed)}
			case 4:
				return []WorkloadPhase{JoinLeaveChurn(0, 0, 1, 0.5, class, seed)}
			case 5:
				return []WorkloadPhase{ChurnBursts(at, 0, 500, 1, 1, class, seed)}
			case 6:
				return []WorkloadPhase{PopulationStep(at, int(k)%4, class, seed)}
			case 7:
				return []WorkloadPhase{JoinAt(at, class, seed), LeaveAt(at+1, seed)}
			}
			return nil
		}
		phases := append(phase(wl%7+1), phase(wl>>3)...)
		w := NewWorkload(phases...)

		cfg := Config{
			Protocol:       protos[int(proto)%len(protos)],
			N:              int(n % 17),
			R:              int(r),
			Seed:           seed,
			SyntheticCoins: coins,
			Backend:        backends[int(backend)%len(backends)],
			Topology:       top,
			Clock:          clocks[int(clock)%len(clocks)],
		}
		if sys, err := New(cfg); err == nil {
			churned := false
			last := 0.0
			checkTime := func(after string) {
				pt := sys.ParallelTime()
				if math.IsNaN(pt) || math.IsInf(pt, 0) || pt < last {
					t.Fatalf("after %s: ParallelTime %v (was %v)", after, pt, last)
				}
				last = pt
				if want := float64(sys.Interactions()) / float64(sys.N()); sys.cfg.Clock == ClockDiscrete && !churned && pt != want {
					t.Fatalf("after %s: churn-free discrete ParallelTime %v, want Interactions()/N() = %v", after, pt, want)
				}
			}
			checkTime("New")
			_ = sys.Inject(class, seed)
			_, _ = sys.InjectTransient(int(k), seed)
			res := sys.Run(WithWorkload(w), MaxInteractions(max), SchedulerSeed(seed))
			for _, eo := range res.EventOutcomes() {
				churned = churned || eo.Fired && (eo.Kind == "join" || eo.Kind == "leave")
			}
			checkTime("Run")
			scheds := []Scheduler{NewUniform(seed), NewBatch(seed, 0), NewZipf(seed, cfg.N, 1), sys.Sampler(seed)}
			_ = sys.StepSched(scheds[seed%uint64(len(scheds))], 64)
			checkTime("StepSched")
		}

		g := Grid{
			Protocols:       []string{cfg.Protocol},
			Topologies:      []Topology{top},
			Clocks:          []string{cfg.Clock},
			Points:          []Point{{N: cfg.N, R: cfg.R}},
			Adversaries:     []Adversary{class},
			Seeds:           1,
			BaseSeed:        seed,
			MaxInteractions: max,
			SyntheticCoins:  coins,
			Backend:         cfg.Backend,
		}
		if wl&0x80 != 0 {
			g.Workload = w
		} else {
			g.TransientK = int(k)
		}
		if ens, err := NewEnsemble(g, Workers(1)); err == nil {
			ens.Run()
		}
	})
}
