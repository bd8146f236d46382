// clock_test.go exercises the continuous-time engine through the public
// API: Config.Clock resolution, the discrete-clock bit-identity contract,
// native parallel time in Result/Snapshot, the MaxParallelTime stop
// predicate, churn-consistent parallel time across clocks, and the
// KS/Mann-Whitney acceptance gate for τ-leaped versus exact stabilization
// distributions on the species backend.

package sspp

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/stats/statcheck"
	"sspp/internal/trials"
)

func TestClockResolution(t *testing.T) {
	for _, clock := range []string{"", ClockDiscrete, ClockContinuous, ClockContinuousExact} {
		if _, err := New(Config{Protocol: ProtocolCIW, N: 32, Seed: 1, Clock: clock}); err != nil {
			t.Fatalf("clock %q rejected: %v", clock, err)
		}
	}
	if _, err := New(Config{Protocol: ProtocolCIW, N: 32, Seed: 1, Clock: "poisson"}); err == nil {
		t.Fatal("unknown clock accepted")
	}
}

// TestContinuousExactPreservesDiscreteSchedule pins the decorrelation of
// the holding-time stream: equipping a run with the continuous-exact clock
// must not perturb its jump chain — the same seeds stabilize at the same
// interaction count on both clocks, on both backends — while the reported
// ParallelTime switches from the derived t/n to the native Poisson event
// time of the same order of magnitude.
func TestContinuousExactPreservesDiscreteSchedule(t *testing.T) {
	for _, backend := range []string{BackendAgent, BackendSpecies} {
		run := func(clock string) Result {
			sys, err := New(Config{Protocol: ProtocolCIW, N: 256, Seed: 9, Backend: backend, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			return sys.Run(SchedulerSeed(10))
		}
		disc := run(ClockDiscrete)
		cont := run(ClockContinuousExact)
		if !disc.Stabilized || !cont.Stabilized {
			t.Fatalf("%s: stabilized %v/%v", backend, disc.Stabilized, cont.Stabilized)
		}
		if disc.Interactions != cont.Interactions || disc.StabilizedAt != cont.StabilizedAt {
			t.Fatalf("%s: continuous-exact clock perturbed the jump chain: %d/%d vs %d/%d interactions",
				backend, disc.Interactions, disc.StabilizedAt, cont.Interactions, cont.StabilizedAt)
		}
		derived := float64(disc.StabilizedAt) / 256
		if disc.ParallelTime != derived {
			t.Fatalf("%s: discrete ParallelTime %v, want %v", backend, disc.ParallelTime, derived)
		}
		// The native time is Gamma(t)·2/n-distributed around 2t/n... for the
		// ordered-pair clock at rate n/2; at t ≈ 10⁴ the fluctuation is ~1%,
		// so a factor-2 corridor around the derived mean never flakes.
		if cont.ParallelTime == derived {
			t.Fatalf("%s: continuous ParallelTime equals the derived value exactly — not a native clock", backend)
		}
		if ratio := cont.ParallelTime / (2 * derived); ratio < 0.5 || ratio > 2 {
			t.Fatalf("%s: native ParallelTime %v far from the Poisson scale %v", backend, cont.ParallelTime, 2*derived)
		}
	}
}

// TestMaxParallelTimeCondition runs a non-stabilizing predicate purely on
// the clock: the run must stop within one poll cadence of the requested
// parallel time on both clocks.
func TestMaxParallelTimeCondition(t *testing.T) {
	const n = 128
	for _, clock := range []string{ClockDiscrete, ClockContinuousExact, ClockContinuous} {
		sys, err := New(Config{Protocol: ProtocolLooseLE, N: n, Seed: 3, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		const target = 8.0
		res := sys.Run(Until(MaxParallelTime(target)), SchedulerSeed(4), MaxInteractions(1_000_000))
		if !res.Stabilized {
			t.Fatalf("clock %s: MaxParallelTime(%v) never held within budget (t=%d)", clock, target, res.Interactions)
		}
		got := sys.ParallelTime()
		if got < target {
			t.Fatalf("clock %s: stopped at parallel time %v before the target %v", clock, got, target)
		}
		// One poll cadence is n/2+1 interactions ≈ 0.5 parallel-time units;
		// the continuous clocks add Poisson jitter on top, still ≪ 2 units.
		if got > target+2 {
			t.Fatalf("clock %s: overshot to %v, target %v", clock, got, target)
		}
	}
}

// TestObserveCarriesParallelTime: snapshots expose a monotone ParallelTime
// on every clock, and a positive one as soon as interactions have run.
func TestObserveCarriesParallelTime(t *testing.T) {
	for _, clock := range []string{ClockDiscrete, ClockContinuous} {
		sys, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 5, Backend: BackendSpecies, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		last := -1.0
		monotone := true
		sys.Run(SchedulerSeed(6), Observe(64, func(s Snapshot) {
			if s.ParallelTime < last {
				monotone = false
			}
			last = s.ParallelTime
		}))
		if !monotone {
			t.Fatalf("clock %s: ParallelTime not monotone across snapshots", clock)
		}
		if last <= 0 {
			t.Fatalf("clock %s: final snapshot reports no parallel time", clock)
		}
	}
}

// TestChurnStormParallelTimeConsistency is the anchoring regression test: a
// Poisson replacement storm at n=10⁴ must report the same parallel time
// under the discrete and continuous clocks up to Poisson fluctuation. The
// replacement storm keeps n constant, so with the same scheduler stream the
// two runs execute the identical interaction sequence; at t = 2·10⁵ the
// continuous clock concentrates to ~0.2% around t/n.
func TestChurnStormParallelTimeConsistency(t *testing.T) {
	const (
		n      = 10_000
		budget = 200_000
	)
	run := func(clock string) (Result, float64) {
		sys, err := New(Config{Protocol: ProtocolCIW, N: n, Seed: 21, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(
			SchedulerSeed(22),
			MaxInteractions(budget),
			WithWorkload(NewWorkload(ReplacementChurn(0, budget, 50, "", 23))),
		)
		return res, sys.ParallelTime()
	}
	resD, ptD := run(ClockDiscrete)
	resC, ptC := run(ClockContinuousExact)
	if resD.Err != nil || resC.Err != nil {
		t.Fatalf("storm runs failed: %v / %v", resD.Err, resC.Err)
	}
	if resD.Interactions != resC.Interactions {
		t.Fatalf("clocks executed different schedules: %d vs %d interactions", resD.Interactions, resC.Interactions)
	}
	// Replacement churn holds n constant, so the per-segment sum telescopes
	// back to Interactions/n — up to float accumulation across the ~10³
	// churn-delimited segments.
	if want := float64(resD.Interactions) / n; math.Abs(ptD-want) > 1e-9*want {
		t.Fatalf("discrete storm parallel time %v, want %v", ptD, want)
	}
	if rel := math.Abs(ptC-2*ptD) / (2 * ptD); rel > 0.05 {
		t.Fatalf("continuous storm parallel time %v deviates %.1f%% from the Poisson scale %v", ptC, 100*rel, 2*ptD)
	}
	// Both storms recovered: the events all fired and the population held.
	// Each replacement is a leave/join pair at one instant, and same-instant
	// replacements batch their leaves ahead of their joins, so N may dip a
	// few below n mid-batch — but never far, and never above.
	var leaves, joins int
	outcomes := resD.EventOutcomes()
	for _, eo := range outcomes {
		if !eo.Fired {
			t.Fatalf("discrete storm event at %d did not fire", eo.At)
		}
		switch eo.Kind {
		case "leave":
			leaves++
		case "join":
			joins++
		}
		if eo.N > n || eo.N < n-8 {
			t.Fatalf("replacement storm drifted the population to %d", eo.N)
		}
	}
	if leaves == 0 || leaves != joins {
		t.Fatalf("unbalanced replacement storm: %d leaves vs %d joins", leaves, joins)
	}
	if last := outcomes[len(outcomes)-1]; last.N != n {
		t.Fatalf("population ended the storm at %d", last.N)
	}
}

// tauLeapGateCase is one protocol row of the τ-leaping acceptance gate.
type tauLeapGateCase struct {
	protocol string
	baseSeed uint64
}

// collectClockSamples runs the protocol's trials on the species backend
// under the given clock and returns the stabilization times (interactions,
// correct output confirmed for 4n) in trial order — deterministic for every
// worker count, which the gate's byte-identity subtest pins.
func collectClockSamples(t *testing.T, protocol, clock string, n, trialCount int, baseSeed uint64, workers int) (samples []float64, failures int) {
	t.Helper()
	type outcome struct {
		took uint64
		ok   bool
	}
	outs := trials.Run(workers, trialCount, baseSeed, func(_ int, src *rng.PRNG) outcome {
		protoSeed := src.Uint64()
		schedSeed := src.Uint64()
		sys, err := New(Config{Protocol: protocol, N: n, Seed: protoSeed, Backend: BackendSpecies, Clock: clock})
		if err != nil {
			return outcome{}
		}
		res := sys.Run(
			Until(CorrectOutput),
			Confirm(uint64(4*n)),
			SchedulerSeed(schedSeed),
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

// TestTauLeapStatisticalEquivalence is the τ-leaping acceptance gate: for
// every compactable registry protocol at n=512 on the species backend, the
// stabilization-time distribution under the τ-leaped continuous clock must
// be statistically indistinguishable (two-sample KS and Mann-Whitney, both
// p > 0.01) from the exact continuous clock at matched seeds. The exact arm
// deals the identical jump chain as the discrete clock, so this gates the
// leaping approximation itself.
func TestTauLeapStatisticalEquivalence(t *testing.T) {
	const n = 512
	trialCount := 200
	if testing.Short() {
		trialCount = 60
	}
	cases := []tauLeapGateCase{
		{protocol: ProtocolCIW, baseSeed: 7001},
		{protocol: ProtocolLooseLE, baseSeed: 7002},
		{protocol: ProtocolNameRank, baseSeed: 7003},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.protocol, func(t *testing.T) {
			t.Parallel()
			exact, exactFail := collectClockSamples(t, tc.protocol, ClockContinuousExact, n, trialCount, tc.baseSeed, 0)
			leaped, leapFail := collectClockSamples(t, tc.protocol, ClockContinuous, n, trialCount, tc.baseSeed, 0)
			if diff := exactFail - leapFail; diff < -2 || diff > 2 {
				t.Fatalf("failure counts diverge: exact %d, leaped %d", exactFail, leapFail)
			}
			if len(exact) < trialCount*9/10 || len(leaped) < trialCount*9/10 {
				t.Fatalf("too many failed trials: exact %d/%d, leaped %d/%d ok",
					len(exact), trialCount, len(leaped), trialCount)
			}
			eq := statcheck.CheckEquivalence(tc.protocol, exact, leaped, 0.01)
			t.Log(eq)
			if !eq.Passed {
				t.Fatalf("τ-leaping statistically distinguishable from exact: %v", eq)
			}
		})
	}
}

// TestTauLeapSamplesWorkerCountIndependent pins the determinism the gate
// rests on: the leaped sample vector is byte-identical for one worker and
// for a parallel pool.
func TestTauLeapSamplesWorkerCountIndependent(t *testing.T) {
	trialCount := 24
	if testing.Short() {
		trialCount = 8
	}
	seq, seqFail := collectClockSamples(t, ProtocolCIW, ClockContinuous, 256, trialCount, 55, 1)
	par, parFail := collectClockSamples(t, ProtocolCIW, ClockContinuous, 256, trialCount, 55, 4)
	if seqFail != parFail || len(seq) != len(par) {
		t.Fatalf("sample counts differ: %d/%d vs %d/%d", len(seq), seqFail, len(par), parFail)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d: %v sequential vs %v parallel", i, seq[i], par[i])
		}
	}
}

// TestContinuousClockOnTopologies: on a non-complete topology the
// next-reaction scheduler carries the clock — runs step, accrue parallel
// time at the global rate, and MaxParallelTime stops on it.
func TestContinuousClockOnTopologies(t *testing.T) {
	for _, top := range []Topology{Ring(), Torus2D()} {
		sys, err := New(Config{Protocol: ProtocolLooseLE, N: 64, Seed: 31, Topology: top, Clock: ClockContinuous})
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(Until(MaxParallelTime(4)), SchedulerSeed(32), MaxInteractions(100_000))
		if !res.Stabilized {
			t.Fatalf("%s: MaxParallelTime never held (t=%d, pt=%v)", top.Name(), res.Interactions, sys.ParallelTime())
		}
		if pt := sys.ParallelTime(); pt < 4 || pt > 7 {
			t.Fatalf("%s: parallel time %v outside [4, 7]", top.Name(), pt)
		}
		if res.Interactions == 0 {
			t.Fatalf("%s: no interactions executed", top.Name())
		}
	}
}

// TestDiscreteStepParallelTime: the Step/StepSched entry points accrue
// derived parallel time under the discrete clock too.
func TestDiscreteStepParallelTime(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolCIW, N: 100, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	sys.Step(42, 250)
	if got := sys.ParallelTime(); got != 2.5 {
		t.Fatalf("ParallelTime %v after 250 interactions at n=100, want 2.5", got)
	}
	if snap := sys.Snapshot(); snap.ParallelTime != 2.5 {
		t.Fatalf("Snapshot.ParallelTime %v, want 2.5", snap.ParallelTime)
	}
}

// TestRecordedUntimedSchedulerKeepsTime: a Recorder around a scheduler that
// does not time its pairs leaves time with the system's own clock, so a
// recorded run stops where the unrecorded one does on both continuous
// clocks — a Recorder has a Time method, but is not a time source unless
// what it wraps is.
func TestRecordedUntimedSchedulerKeepsTime(t *testing.T) {
	for _, clock := range []string{ClockContinuous, ClockContinuousExact} {
		run := func(sched Scheduler) (Result, float64) {
			sys, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 1, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run(Until(MaxParallelTime(4)), WithScheduler(sched), MaxInteractions(5000))
			return res, sys.ParallelTime()
		}
		plain, ptPlain := run(NewUniform(2))
		recorded, ptRecorded := run(NewRecorder(NewUniform(2)))
		if !plain.Stabilized || plain.Interactions >= 5000 {
			t.Fatalf("%s: unrecorded run did not stop on the clock: %+v", clock, plain)
		}
		if recorded != plain || ptRecorded != ptPlain {
			t.Fatalf("%s: recorded run %+v at parallel time %v, unrecorded %+v at %v",
				clock, recorded, ptRecorded, plain, ptPlain)
		}
	}
}

// stampedScheduler is a uniform scheduler that times its own pairs at the
// mean rate of the continuous-time model: 2/n per interaction.
type stampedScheduler struct {
	src   Scheduler
	n     int
	dealt int
}

func (s *stampedScheduler) Pair(n int) (int, int) { s.dealt++; return s.src.Pair(n) }
func (s *stampedScheduler) Time() float64         { return 2 * float64(s.dealt) / float64(s.n) }

// TestTimedSchedulerOwnsTime: on a continuous complete-topology agent
// system, a scheduler that times its own pairs owns the system's parallel
// time while it deals — Run stops on it and ParallelTime reads it — and the
// system's own clock resumes from there under the next untimed scheduler.
func TestTimedSchedulerOwnsTime(t *testing.T) {
	const n = 64
	sys, err := New(Config{Protocol: ProtocolCIW, N: n, Seed: 1, Clock: ClockContinuous})
	if err != nil {
		t.Fatal(err)
	}
	sched := &stampedScheduler{src: NewUniform(2), n: n}
	res := sys.Run(Until(MaxParallelTime(4)), WithScheduler(sched), MaxInteractions(5000))
	if !res.Stabilized || res.Interactions >= 5000 {
		t.Fatalf("run did not stop on the scheduler's clock: %+v (scheduler at %v)", res, sched.Time())
	}
	if got := sys.ParallelTime(); got != sched.Time() || res.ParallelTime != got {
		t.Fatalf("ParallelTime %v, Result.ParallelTime %v, scheduler's clock %v", got, res.ParallelTime, sched.Time())
	}
	if err := sys.StepSched(sched, 100); err != nil {
		t.Fatal(err)
	}
	if got := sys.ParallelTime(); got != sched.Time() {
		t.Fatalf("after StepSched: ParallelTime %v, scheduler's clock %v", got, sched.Time())
	}
	before := sys.ParallelTime()
	sys.Step(3, 640)
	if got := sys.ParallelTime(); got <= before || got > before+40 {
		t.Fatalf("own clock resumed at %v after the timed scheduler left it at %v", got, before)
	}
}

// TestDiscreteRunClockAgreement: after a fresh discrete Run that stops at
// its final poll, System.ParallelTime, Result.ParallelTime and the final
// Observe snapshot read the same value, bit for bit. A second Run on the
// same system (the TransientK recovery shape) reads its run-relative time
// exactly as a fresh run does, StabilizedAt/n bit for bit, not the
// last-ulp-off difference of two lifetime readings.
func TestDiscreteRunClockAgreement(t *testing.T) {
	const seeds = 50
	for _, n := range []int{3, 7, 10, 24, 100, 333} {
		for seed := uint64(1); seed <= seeds; seed++ {
			sys, err := New(Config{Protocol: ProtocolCIW, N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var last Snapshot
			res := sys.Run(Until(CorrectOutput), SchedulerSeed(seed+1000), Observe(0, func(s Snapshot) { last = s }))
			if !res.Stabilized || res.Interactions != res.StabilizedAt {
				t.Fatalf("n=%d seed=%d: run did not stop at its final poll: %+v", n, seed, res)
			}
			if pt := sys.ParallelTime(); pt != res.ParallelTime || pt != last.ParallelTime {
				t.Fatalf("n=%d seed=%d: ParallelTime %v, Result.ParallelTime %v, last snapshot %v",
					n, seed, pt, res.ParallelTime, last.ParallelTime)
			}
			if _, err := sys.InjectTransient(1, seed); err != nil {
				t.Fatal(err)
			}
			res = sys.Run(Until(CorrectOutput), SchedulerSeed(seed+2000))
			if want := float64(res.StabilizedAt) / float64(n); !res.Stabilized || res.ParallelTime != want {
				t.Fatalf("n=%d seed=%d: second run reads %v, want StabilizedAt/n = %v (%+v)",
					n, seed, res.ParallelTime, want, res)
			}
		}
	}
}

// TestDesignClockTable checks the owner-of-time table of DESIGN.md §12
// against the engine: every row's (clock, backend, topology, scheduler)
// combinations are built and bound, and the component that then owns the
// system's parallel time has the concrete type the row names. A timed
// scheduler owns time when the system's clock reads it after stepping.
func TestDesignClockTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| Clock | Backend | Topology | Scheduler | Owner of parallel time |"
	_, table, ok := strings.Cut(string(doc), header+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no table headed %q", header)
	}
	// The first backticked name of an owner cell, as the engine's type.
	owners := map[string]string{
		"sim.DiscreteClock": "*sim.DiscreteClock",
		"sim.NativeClock":   "sim.NativeClock",
		"sim.TimeKeeper":    "*sim.TimeKeeper",
		"sim.NextReaction":  "*sim.NextReaction",
	}
	const n, steps = 16, 64
	// schedulers returns a scheduler column's representatives for sys: kind
	// is "uniform", "untimed", "timed" or "any".
	schedulers := func(kind string, sys *System) []Scheduler {
		var uniform, untimed, timed []Scheduler
		uniform = []Scheduler{NewUniform(7)}
		replay := func(s Scheduler) Scheduler {
			r := NewRecorder(s)
			for i := 0; i < steps; i++ {
				r.Pair(n)
			}
			return r.Recording().Replay()
		}
		if sys.Backend() == BackendAgent {
			if sys.graph == nil {
				untimed = []Scheduler{NewUniform(7), NewBatch(7, 8), NewZipf(7, n, 1.1), NewWeighted(7, make([]float64, n)),
					NewRecorder(NewUniform(7)), replay(NewUniform(7))}
				stamped := func() Scheduler { return &stampedScheduler{src: NewUniform(7), n: n} }
				timed = []Scheduler{stamped(), NewRecorder(stamped()), replay(stamped())}
			} else {
				untimed = []Scheduler{sys.Sampler(7), NewRecorder(sys.Sampler(7)), replay(sys.Sampler(7))}
				nr := func() Scheduler { return sim.NewNextReaction(sys.graph, rng.New(7), 0) }
				timed = []Scheduler{nr(), NewRecorder(nr()), replay(nr())}
			}
		}
		switch kind {
		case "uniform":
			return uniform
		case "untimed":
			return untimed
		case "timed":
			return timed
		}
		return append(append(uniform, untimed...), timed...)
	}
	rows := 0
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the separator
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows++
		cols := strings.Split(strings.Trim(line, "|"), "|")
		if len(cols) != 5 {
			t.Fatalf("clock table row has %d columns, want 5: %s", len(cols), line)
		}
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		var kind string
		switch sc := cols[3]; {
		case strings.HasPrefix(sc, "any"):
			kind = "any"
		case strings.HasPrefix(sc, "untimed"):
			kind = "untimed"
		case strings.HasPrefix(sc, "timed"):
			kind = "timed"
		case strings.Contains(sc, "uniform stream"):
			kind = "uniform"
		default:
			t.Fatalf("clock table row names no scheduler kind: %s", line)
		}
		want, byScheduler := "", strings.HasPrefix(cols[4], "the scheduler")
		if !byScheduler {
			_, name, _ := strings.Cut(cols[4], "`")
			name, _, _ = strings.Cut(name, "`")
			if want, ok = owners[name]; !ok {
				t.Fatalf("clock table row names unknown owner %q: %s", name, line)
			}
		}
		tops := map[string][]Topology{"any": {Complete(), Ring()}, "complete": {Complete()}, "non-complete": {Ring()}}[cols[2]]
		if tops == nil {
			t.Fatalf("clock table row names unknown topology %q: %s", cols[2], line)
		}
		combos := 0
		for _, clock := range strings.Split(cols[0], ",") {
			for _, backend := range strings.Split(cols[1], " or ") {
				for _, top := range tops {
					if backend == BackendSpecies && !top.IsComplete() {
						continue // no species form on an interaction graph (§9)
					}
					cfg := Config{Protocol: ProtocolCIW, N: n, Seed: 3, Topology: top,
						Backend: strings.TrimSpace(backend), Clock: strings.TrimSpace(clock)}
					probe, err := New(cfg)
					if err != nil {
						t.Fatalf("%+v: %v", cfg, err)
					}
					for _, sched := range schedulers(kind, probe) {
						combos++
						sys, _ := New(cfg)
						bound, err := sys.bind(sched)
						if err != nil {
							t.Fatalf("%s: binding %T: %v", line, sched, err)
						}
						sys.step(bound, steps)
						var owner any = sys.clock
						if td, ok := sim.AsTimed(bound); ok && sys.ParallelTime() == td.Time() {
							owner = td
						}
						rowWant := want
						if byScheduler {
							td, ok := sim.AsTimed(sched)
							if !ok {
								t.Fatalf("%s: scheduler %T does not time its pairs", line, sched)
							}
							rowWant = fmt.Sprintf("%T", td)
						}
						if got := fmt.Sprintf("%T", owner); got != rowWant {
							t.Errorf("%s clock, %s backend, %s, scheduler %T: time is owned by %s, DESIGN.md says %s",
								clock, backend, top.Name(), sched, got, rowWant)
						}
					}
				}
			}
		}
		if combos == 0 {
			t.Errorf("clock table row checks no combination: %s", line)
		}
	}
	if rows != 6 {
		t.Fatalf("clock table has %d rows, want 6", rows)
	}
}
