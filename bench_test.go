// bench_test.go is the benchmark harness of deliverable (d): one testing.B
// target per experiment in DESIGN.md §5 (T1–T13, F1, F2), each running a
// scaled-down instance of the corresponding measurement, plus micro-benches
// of the protocol's hot paths. cmd/benchtab produces the full-size tables;
// these targets make every experiment reproducible through `go test -bench`.
package sspp

import (
	"fmt"
	"math"
	"testing"

	"sspp/internal/adversary"
	"sspp/internal/baseline"
	"sspp/internal/coin"
	"sspp/internal/core"
	"sspp/internal/detect"
	"sspp/internal/epidemic"
	"sspp/internal/loadbalance"
	"sspp/internal/ranking"
	"sspp/internal/rng"
)

// runCustom runs p on the engine, System.Run, with the given options.
func runCustom(b *testing.B, p Protocol, opts ...RunOption) Result {
	b.Helper()
	sys, err := NewCustom(p)
	if err != nil {
		b.Fatal(err)
	}
	return sys.Run(opts...)
}

// runFromClass builds ElectLeader_r, injects the class, and runs to the safe
// set, reporting interactions as a benchmark metric.
func runFromClass(b *testing.B, n, r int, class adversary.Class) {
	b.Helper()
	budget := uint64(1000 * float64(n*n) / float64(r) * math.Log(float64(n)+1))
	var total uint64
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		p, err := core.New(n, r, core.WithSeed(seed))
		if err != nil {
			b.Fatal(err)
		}
		if err := adversary.Apply(p, class, rng.New(seed+7)); err != nil {
			b.Fatal(err)
		}
		res := runCustom(b, p, SchedulerSeed(seed+13), MaxInteractions(budget))
		if !res.Stabilized {
			b.Fatalf("iteration %d: no stabilization within %d", i, budget)
		}
		total += res.StabilizedAt
	}
	b.ReportMetric(float64(total)/float64(b.N), "interactions/op")
}

// BenchmarkT1_StabilizeFromReset measures stabilization from a triggered
// configuration (Theorem 1.1 / Lemma 6.2) at n=32, r=8.
func BenchmarkT1_StabilizeFromReset(b *testing.B) {
	runFromClass(b, 32, 8, adversary.ClassTriggered)
}

// BenchmarkF1_TradeoffCurve sweeps r at n=32: interactions/op should fall
// roughly like 1/r (the headline trade-off).
func BenchmarkF1_TradeoffCurve(b *testing.B) {
	for _, r := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			runFromClass(b, 32, r, adversary.ClassTriggered)
		})
	}
}

// BenchmarkF2_ScalingInN sweeps n at r=n/4: interactions/op should grow
// quasi-linearly (O(n·log n) shape).
func BenchmarkF2_ScalingInN(b *testing.B) {
	for _, n := range []int{16, 32, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runFromClass(b, n, n/4, adversary.ClassTriggered)
		})
	}
}

// BenchmarkT2_StateComplexity measures the Figure 1 bit-complexity formula
// evaluation across the trade-off (a pure-computation experiment).
func BenchmarkT2_StateComplexity(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, r := range []float64{1, 16, 256} {
			sink += core.ElectLeaderBits(1024, r)
		}
	}
	_ = sink
}

// BenchmarkT3_AssignRanks measures standalone ranking from a clean start
// (Lemma D.1) at n=64, r=8. The guarantee is w.h.p., not certain — the
// standalone sub-protocol is not self-stabilizing, so across thousands of
// iterations an occasional misfired sheriff election never completes (in
// the full protocol the countdown/verifier machinery repairs exactly this).
// Such runs are counted in the whp_failures metric rather than failing the
// benchmark; their rate must stay small.
func BenchmarkT3_AssignRanks(b *testing.B) {
	const n, r = 64, 8
	var total uint64
	completed, failures := 0, 0
	for i := 0; i < b.N; i++ {
		pr, err := ranking.NewProtocol(n, r, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res := runCustom(b, pr, Until(CorrectOutput), SchedulerSeed(uint64(i)+99),
			MaxInteractions(1<<21), PollEvery(n/4), Confirm(4*n))
		if !res.Stabilized {
			failures++
			continue
		}
		completed++
		total += res.StabilizedAt
	}
	if failures*20 > completed {
		b.Fatalf("ranking failure rate too high: %d of %d", failures, completed+failures)
	}
	if completed > 0 {
		b.ReportMetric(float64(total)/float64(completed), "interactions/op")
	}
	b.ReportMetric(float64(failures), "whp_failures")
}

// BenchmarkT4_FastLeaderElect measures sheriff election (Lemma D.10) at
// n=256.
func BenchmarkT4_FastLeaderElect(b *testing.B) {
	const n = 256
	for i := 0; i < b.N; i++ {
		f := ranking.NewFastLE(n, coin.FromPRNG(rng.New(uint64(i))))
		res := runCustom(b, f, Until(CorrectOutput), SchedulerSeed(uint64(i)+5),
			MaxInteractions(1<<24), PollEvery(n/4), Confirm(4*n))
		if !res.Stabilized {
			b.Fatal("election failed")
		}
	}
}

// BenchmarkT5_Epidemic measures two-way epidemic completion (Lemma A.2) at
// n=1024.
func BenchmarkT5_Epidemic(b *testing.B) {
	const n = 1024
	var total uint64
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		res := runCustom(b, epidemic.NewTwoWay(n, r.Intn(n)), Until(CorrectOutput), WithScheduler(r), PollEvery(1))
		if !res.Stabilized {
			b.Fatal("epidemic did not complete")
		}
		total += res.StabilizedAt
	}
	b.ReportMetric(float64(total)/float64(b.N), "interactions/op")
}

// BenchmarkT6_LoadBalance measures load balancing to discrepancy ≤ 3 from a
// point mass (Lemma E.6 substrate) at n=512.
func BenchmarkT6_LoadBalance(b *testing.B) {
	const n = 512
	for i := 0; i < b.N; i++ {
		p := loadbalance.NewPointMass(n, 2*n)
		balanced := ConditionFunc("discrepancy<=3", func(*System) bool { return p.Discrepancy() <= 3 })
		if res := runCustom(b, p, Until(balanced), SchedulerSeed(uint64(i)), MaxInteractions(1<<24)); !res.Stabilized {
			b.Fatal("balancing failed")
		}
	}
}

// BenchmarkT7_DetectionLatency measures ⊤ latency under one duplicated rank
// (Lemma E.1(b)) at n=32, r=8.
func BenchmarkT7_DetectionLatency(b *testing.B) {
	const n, r = 32, 8
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i + 1)
	}
	ranks[1] = 1
	var total uint64
	for i := 0; i < b.N; i++ {
		h, err := detect.NewHarness(n, r, ranks, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sched := rng.New(uint64(i) + 3)
		var t uint64
		for !h.AnyTop() {
			x, y := sched.Pair(n)
			h.Interact(x, y)
			t++
		}
		total += t
	}
	b.ReportMetric(float64(total)/float64(b.N), "interactions/op")
}

// BenchmarkT8_Soundness runs the detection layer on a correct ranking for a
// fixed horizon (Lemma E.1(a)): throughput of the soundness experiment.
func BenchmarkT8_Soundness(b *testing.B) {
	const n, r = 16, 8
	h, err := detect.NewHarness(n, r, nil, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sched := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := sched.Pair(n)
		h.Interact(x, y)
	}
	if h.AnyTop() {
		b.Fatal("false positive")
	}
}

// BenchmarkT9_SoftReset measures repair of corrupted messages on a correct
// ranking (§3.2) at n=12, r=6.
func BenchmarkT9_SoftReset(b *testing.B) {
	runFromClass(b, 12, 6, adversary.ClassCorruptMessages)
}

// BenchmarkT10_Recovery measures safe-set arrival from representative rungs
// of the recovery ladder at n=16, r=4.
func BenchmarkT10_Recovery(b *testing.B) {
	for _, class := range []adversary.Class{
		adversary.ClassMixedRoles,
		adversary.ClassMixedGenerations,
		adversary.ClassTwoLeaders,
		adversary.ClassRandomGarbage,
	} {
		b.Run(string(class), func(b *testing.B) {
			runFromClass(b, 16, 4, class)
		})
	}
}

// BenchmarkT11_Baselines compares the n-state CIW baseline against
// ElectLeader_r at n=32.
func BenchmarkT11_Baselines(b *testing.B) {
	const n = 32
	b.Run("CIW", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			c := baseline.NewCIW(n)
			res := runCustom(b, c, Until(CorrectOutput), SchedulerSeed(uint64(i)),
				MaxInteractions(1<<26), PollEvery(n/4), Confirm(20*n*n))
			if !res.Stabilized {
				b.Fatal("CIW failed")
			}
			total += res.StabilizedAt
		}
		b.ReportMetric(float64(total)/float64(b.N), "interactions/op")
	})
	b.Run("ElectLeader_r=8", func(b *testing.B) {
		runFromClass(b, n, 8, adversary.ClassTriggered)
	})
}

// BenchmarkT12_SyntheticCoin measures the fully derandomized protocol
// (Appendix B) at n=16, r=4.
func BenchmarkT12_SyntheticCoin(b *testing.B) {
	const n, r = 16, 4
	budget := uint64(1000 * float64(n*n) / float64(r) * math.Log(float64(n)+1))
	for i := 0; i < b.N; i++ {
		p, err := core.New(n, r, core.WithSeed(uint64(i)), core.WithSyntheticCoins())
		if err != nil {
			b.Fatal(err)
		}
		if res := runCustom(b, p, SchedulerSeed(uint64(i)+13), MaxInteractions(budget)); !res.Stabilized {
			b.Fatal("no stabilization")
		}
	}
}

// BenchmarkT14_TransientFaults measures re-stabilization after a mid-run
// burst corrupting 4 of 16 agents.
func BenchmarkT14_TransientFaults(b *testing.B) {
	const n, r = 16, 4
	budget := uint64(1000 * float64(n*n) / float64(r) * math.Log(float64(n)+1))
	var total uint64
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		p, err := core.New(n, r, core.WithSeed(seed))
		if err != nil {
			b.Fatal(err)
		}
		if res := runCustom(b, p, SchedulerSeed(seed+1), MaxInteractions(budget)); !res.Stabilized {
			b.Fatal("setup failed")
		}
		adversary.Transient(p, 4, rng.New(seed+2))
		res := runCustom(b, p, SchedulerSeed(seed+3), MaxInteractions(budget))
		if !res.Stabilized {
			b.Fatal("no recovery")
		}
		total += res.StabilizedAt
	}
	b.ReportMetric(float64(total)/float64(b.N), "interactions/op")
}

// BenchmarkT15_ObservedStates measures a stabilization run with full
// agent-state fingerprinting enabled (the T15 instrumentation overhead).
func BenchmarkT15_ObservedStates(b *testing.B) {
	const n, r = 16, 4
	budget := uint64(1000 * float64(n*n) / float64(r) * math.Log(float64(n)+1))
	for i := 0; i < b.N; i++ {
		p, err := core.New(n, r, core.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		distinct := make(map[string]struct{}, 1<<12)
		var buf []byte
		sched := rng.New(uint64(i) + 3)
		var took uint64
		for took < budget {
			x, y := sched.Pair(n)
			p.Interact(x, y)
			buf = p.AgentKey(x, buf[:0])
			distinct[string(buf)] = struct{}{}
			buf = p.AgentKey(y, buf[:0])
			distinct[string(buf)] = struct{}{}
			took++
			if took%n == 0 && p.InSafeSet() {
				break
			}
		}
		if len(distinct) == 0 {
			b.Fatal("no states recorded")
		}
	}
}

// BenchmarkT13_LooseLeader measures loose-stabilization convergence at n=64,
// τ = 4·n·ln n.
func BenchmarkT13_LooseLeader(b *testing.B) {
	const n = 64
	tau := int32(4 * float64(n) * math.Log(n))
	for i := 0; i < b.N; i++ {
		l := baseline.NewLooseLE(n, tau)
		res := runCustom(b, l, Until(CorrectOutput), SchedulerSeed(uint64(i)),
			MaxInteractions(1<<24), PollEvery(n/4), Confirm(4*n))
		if !res.Stabilized {
			b.Fatal("no convergence")
		}
	}
}

// --- hot-path micro-benchmarks ---

// BenchmarkInteraction_Verifiers measures a single ElectLeader_r interaction
// between same-group verifiers (the detection hot path: consistency check,
// message restamp, balance-load).
func BenchmarkInteraction_Verifiers(b *testing.B) {
	for _, r := range []int{4, 16} {
		b.Run(fmt.Sprintf("groupsize=%d", r), func(b *testing.B) {
			n := 2 * r
			p, err := core.New(n, r, core.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				p.ForceVerifier(i, int32(i+1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Interact(0, 1) // ranks 1 and 2: same group
			}
			if p.AnyTop() {
				b.Fatal("false positive")
			}
		})
	}
}

// BenchmarkInteraction_Rankers measures a single ranker-ranker interaction
// (the AssignRanks_r hot path).
func BenchmarkInteraction_Rankers(b *testing.B) {
	const n, r = 64, 8
	p, err := core.New(n, r, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	sched := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := sched.Pair(n)
		p.Interact(x, y)
	}
}

// BenchmarkSafeSetCheck measures the InSafeSet predicate (polled by every
// safe-set run) on a stabilized configuration.
func BenchmarkSafeSetCheck(b *testing.B) {
	const n, r = 32, 8
	p, err := core.New(n, r, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.InSafeSet() {
			b.Fatal("should be safe")
		}
	}
}
