package sspp

import (
	"fmt"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/stats/statcheck"
	"sspp/internal/trials"
)

// TestEveryAdversaryClassInjectsAndRecovers is the full catalogue × sizes
// table: every AdversaryClasses() entry must inject without error and the
// system must recover to the safe set of Lemma 6.1 for small (n, r) in all
// three r-regimes (constant, log-ish, linear). Message-layer classes must
// additionally keep the ranking intact (the §3.2 soft-reset guarantee,
// via RankingPreserved).
func TestEveryAdversaryClassInjectsAndRecovers(t *testing.T) {
	sizes := []struct{ n, r int }{
		{12, 3},
		{16, 4},
		{16, 8},
	}
	classes := AdversaryClasses()
	if len(classes) != 12 {
		t.Fatalf("classes = %d, want 12", len(classes))
	}
	for _, size := range sizes {
		for i, class := range classes {
			size, class, seed := size, class, uint64(i+1)
			t.Run(fmt.Sprintf("n=%d/r=%d/%s", size.n, size.r, class), func(t *testing.T) {
				t.Parallel()
				sys, err := New(Config{N: size.n, R: size.r, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Inject(class, seed+100); err != nil {
					t.Fatalf("inject: %v", err)
				}
				var before []int
				if RankingPreserved(class) {
					before = sys.Ranks()
				}
				res := sys.Run(Until(SafeSet), SchedulerSeed(seed+200))
				if !res.Stabilized {
					t.Fatalf("no recovery within %d interactions (events %s)",
						res.Interactions, sys.Events())
				}
				if sys.Leaders() != 1 {
					t.Fatalf("leaders = %d in safe set", sys.Leaders())
				}
				if !sys.CorrectRanking() {
					t.Fatal("ranking not a permutation in safe set")
				}
				if before != nil {
					if sys.HardResets() != 0 {
						t.Fatalf("message fault caused %d hard resets", sys.HardResets())
					}
					for j, r := range sys.Ranks() {
						if before[j] != r {
							t.Fatalf("rank of agent %d changed %d -> %d", j, before[j], r)
						}
					}
				}
			})
		}
	}
}

// TestDescribeEveryClass: the catalogue is fully documented.
func TestDescribeEveryClass(t *testing.T) {
	for _, c := range AdversaryClasses() {
		if DescribeAdversary(c) == "unknown class" || DescribeAdversary(c) == "" {
			t.Errorf("class %q undescribed", c)
		}
	}
	if DescribeAdversary("bogus") != "unknown class" {
		t.Error("unknown class described")
	}
}

// TestInjectTransientCapabilityTable: every registry protocol either
// supports transient faults (returns the victims) or fails fast with an
// error — never a silent no-op — and the Run engine rejects scheduled
// faults for the non-injectable protocols up front, with zero interactions
// executed.
func TestInjectTransientCapabilityTable(t *testing.T) {
	injectable := map[string]bool{
		ProtocolElectLeader: true,
		ProtocolCIW:         true,
		ProtocolLooseLE:     true,
		ProtocolNameRank:    false,
		ProtocolFastLE:      false,
	}
	for name, cfg := range registryConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			want, known := injectable[name]
			if !known {
				t.Fatalf("protocol %q missing from the test's capability table", name)
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			victims, err := sys.InjectTransient(3, 7)
			if want {
				if err != nil {
					t.Fatalf("InjectTransient: %v", err)
				}
				if len(victims) != 3 {
					t.Fatalf("%d victims, want 3", len(victims))
				}
			} else {
				if err == nil {
					t.Fatal("InjectTransient silently accepted without the injectable capability")
				}
				if victims != nil {
					t.Fatalf("victims %v returned alongside the error", victims)
				}
			}

			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := fresh.Run(SchedulerSeed(9), InjectTransientAt(50, 3, 7))
			if want {
				if res.Err != nil {
					t.Fatalf("scheduled fault rejected for an injectable protocol: %v", res.Err)
				}
			} else if res.Err == nil || res.Interactions != 0 {
				t.Fatalf("scheduled fault on %s: err=%v after %d interactions (want up-front rejection)",
					name, res.Err, res.Interactions)
			}
		})
	}
}

// TestInjectTransientBurstSize: a negative burst size is an error on every
// protocol — electleader used to panic slicing Perm(n)[:k], ciw and loosele
// silently corrupted nobody — while k = 0 stays a no-op on the injectable
// ones.
func TestInjectTransientBurstSize(t *testing.T) {
	for name, cfg := range registryConfigs() {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if victims, err := sys.InjectTransient(-1, 7); err == nil || victims != nil {
			t.Errorf("%s: InjectTransient(-1) = %v, %v; want an error", name, victims, err)
		}
		if _, injectable := sim.AsInjectable(sys.proto); !injectable {
			continue
		}
		before := sys.Snapshot()
		if victims, err := sys.InjectTransient(0, 7); err != nil || len(victims) != 0 {
			t.Errorf("%s: InjectTransient(0) = %v, %v; want no victims", name, victims, err)
		}
		if after := sys.Snapshot(); after != before {
			t.Errorf("%s: InjectTransient(0) changed the population: %+v → %+v", name, before, after)
		}
	}
}

// churnEquivCases are the catalogue extension to the species backend: every
// churn-join class realizable by both backends of a churnable compactable
// protocol. (The species backend has no per-agent injection surface, so the
// transient classes stay agent-only; churn is the disruption shape both
// backends share.)
var churnEquivCases = []struct {
	protocol string
	class    Adversary
}{
	{ProtocolCIW, AdversaryCleanRankers},
	{ProtocolCIW, AdversaryRandomGarbage},
	{ProtocolCIW, AdversaryDuplicateRanks},
	{ProtocolLooseLE, AdversaryNoLeader},
	{ProtocolLooseLE, AdversaryTwoLeaders},
	{ProtocolLooseLE, AdversaryRandomGarbage},
}

// collectChurnSamples runs paired churn trials of one (protocol, class) on
// one backend at n=512: each trial stabilizes through a five-burst
// join/leave storm whose joins enter in the adversary class, and the sample
// is the confirmed re-stabilization time. Seeds are pre-derived per trial
// index, so both backends sample at matched seeds (the equiv_test.go
// pattern).
func collectChurnSamples(t *testing.T, protocol string, class Adversary, count int, baseSeed uint64, backend string) (samples []float64, failures int) {
	t.Helper()
	const n = 512
	type outcome struct {
		took uint64
		ok   bool
	}
	outs := trials.Run(0, count, baseSeed, func(_ int, src *rng.PRNG) outcome {
		protoSeed := src.Uint64()
		schedSeed := src.Uint64()
		wlSeed := src.Uint64()
		sys, err := New(Config{Protocol: protocol, N: n, Seed: protoSeed, Backend: backend})
		if err != nil {
			return outcome{}
		}
		wl := NewWorkload(ChurnBursts(uint64(n), uint64(5*n)+1, uint64(n), 8, 8, class, wlSeed))
		res := sys.Run(
			Until(CorrectOutput),
			Confirm(uint64(4*n)),
			SchedulerSeed(schedSeed),
			WithWorkload(wl),
		)
		if res.Err != nil || !res.Stabilized {
			return outcome{}
		}
		return outcome{took: res.StabilizedAt, ok: true}
	})
	for _, o := range outs {
		if o.ok {
			samples = append(samples, float64(o.took))
		} else {
			failures++
		}
	}
	return samples, failures
}

// TestChurnClassBackendEquivalence extends the adversary catalogue across
// backends: for every churn-join class both backends realize, the agent and
// species re-stabilization-time distributions under the identical churn
// workload must be statistically indistinguishable (KS + Mann–Whitney at
// alpha 0.01, the internal/species equivalence gate).
func TestChurnClassBackendEquivalence(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 60
	}
	for i, tc := range churnEquivCases {
		tc, baseSeed := tc, uint64(2000+10*i)
		t.Run(tc.protocol+"/"+string(tc.class), func(t *testing.T) {
			t.Parallel()
			agent, agentFail := collectChurnSamples(t, tc.protocol, tc.class, count, baseSeed, BackendAgent)
			spec, specFail := collectChurnSamples(t, tc.protocol, tc.class, count, baseSeed, BackendSpecies)
			if diff := agentFail - specFail; diff < -2 || diff > 2 {
				t.Fatalf("failure counts diverge: agent %d, species %d", agentFail, specFail)
			}
			if len(agent) < count*9/10 || len(spec) < count*9/10 {
				t.Fatalf("too many failed trials: agent %d/%d, species %d/%d ok",
					len(agent), count, len(spec), count)
			}
			eq := statcheck.CheckEquivalence(tc.protocol+"/"+string(tc.class), agent, spec, 0.01)
			t.Log(eq)
			if !eq.Passed {
				t.Fatalf("backends statistically distinguishable under churn: %v", eq)
			}
		})
	}
}

// TestRankingPreservedCatalogue: exactly the message-layer classes promise
// ranking preservation.
func TestRankingPreservedCatalogue(t *testing.T) {
	want := map[Adversary]bool{
		AdversaryCorruptMessages:   true,
		AdversaryDuplicateMessages: true,
	}
	for _, c := range AdversaryClasses() {
		if RankingPreserved(c) != want[c] {
			t.Errorf("RankingPreserved(%q) = %v", c, RankingPreserved(c))
		}
	}
}
