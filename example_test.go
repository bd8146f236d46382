package sspp_test

import (
	"fmt"

	"sspp"
)

// The simplest session: build a population, let it run to the safe set of
// Lemma 6.1, read the leader. Everything is deterministic given the seeds.
func ExampleNew() {
	sys, err := sspp.New(sspp.Config{N: 16, R: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	res := sys.Run(sspp.Until(sspp.SafeSet), sspp.SchedulerSeed(2))
	fmt.Println("stabilized:", res.Stabilized)
	fmt.Println("unique leader exists:", sys.Leaders() == 1)
	fmt.Println("ranking is a permutation:", sys.CorrectRanking())
	// Output:
	// stabilized: true
	// unique leader exists: true
	// ranking is a permutation: true
}

// Self-stabilization: inject a two-leader fault and watch the protocol
// recover through detection and a full reset.
func ExampleSystem_Inject() {
	sys, err := sspp.New(sspp.Config{N: 16, R: 4, Seed: 3})
	if err != nil {
		panic(err)
	}
	if err := sys.Inject(sspp.AdversaryTwoLeaders, 5); err != nil {
		panic(err)
	}
	fmt.Println("leaders before:", sys.Leaders())
	res := sys.Run(sspp.Until(sspp.SafeSet), sspp.SchedulerSeed(6))
	fmt.Println("stabilized:", res.Stabilized)
	fmt.Println("leaders after:", sys.Leaders())
	fmt.Println("hard reset was needed:", sys.HardResets() > 0)
	// Output:
	// leaders before: 2
	// stabilized: true
	// leaders after: 1
	// hard reset was needed: true
}

// Message-layer faults are repaired softly: the ranking survives.
func ExampleSystem_Run() {
	sys, err := sspp.New(sspp.Config{N: 12, R: 6, Seed: 7})
	if err != nil {
		panic(err)
	}
	// A correctly ranked population whose collision-detection messages have
	// been corrupted (the class installs both in one step).
	if err := sys.Inject(sspp.AdversaryCorruptMessages, 9); err != nil {
		panic(err)
	}
	before := sys.Ranks()
	sys.Run(sspp.Until(sspp.SafeSet), sspp.SchedulerSeed(10))
	after := sys.Ranks()

	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	fmt.Println("hard resets:", sys.HardResets())
	fmt.Println("ranking preserved:", same)
	// Output:
	// hard resets: 0
	// ranking preserved: true
}

// Run options compose: stop conditions are first-class predicates, a
// confirmation window turns output correctness into output stability, and
// Observe streams snapshots without perturbing the schedule.
func ExampleSystem_Run_options() {
	sys, err := sspp.New(sspp.Config{N: 16, R: 8, Seed: 4})
	if err != nil {
		panic(err)
	}
	observations := 0
	res := sys.Run(
		sspp.Until(sspp.CorrectOutput),
		sspp.Confirm(320), // hold the single leader for 20·n interactions
		sspp.SchedulerSeed(7),
		sspp.Observe(1000, func(sspp.Snapshot) { observations++ }),
	)
	fmt.Println("stabilized:", res.Stabilized)
	fmt.Println("condition:", res.Condition)
	fmt.Println("observed at least once:", observations > 0)
	// Output:
	// stabilized: true
	// condition: correct-output
	// observed at least once: true
}

// An Ensemble declares a whole family of runs — a grid of (n, r) points ×
// adversary classes × seeds — and executes it in parallel with
// deterministic, worker-count-independent aggregation.
func ExampleEnsemble() {
	ens, err := sspp.NewEnsemble(sspp.Grid{
		Points:      []sspp.Point{{N: 16, R: 4}, {N: 16, R: 8}},
		Adversaries: []sspp.Adversary{sspp.AdversaryTriggered},
		Seeds:       3,
	})
	if err != nil {
		panic(err)
	}
	out := ens.Run()
	for _, cell := range out.Cells {
		fmt.Printf("n=%d r=%d %s: %d/%d recovered\n",
			cell.Point.N, cell.Point.R, cell.Adversary, cell.Recovered, cell.Seeds)
	}
	fast, _ := out.Cell(sspp.CellKey{Point: sspp.Point{N: 16, R: 8}, Adversary: sspp.AdversaryTriggered})
	slow, _ := out.Cell(sspp.CellKey{Point: sspp.Point{N: 16, R: 4}, Adversary: sspp.AdversaryTriggered})
	fmt.Println("larger r is faster:", fast.Interactions.Mean < slow.Interactions.Mean)
	// Output:
	// n=16 r=4 triggered: 3/3 recovered
	// n=16 r=8 triggered: 3/3 recovered
	// larger r is faster: true
}

// StateBits evaluates the Figure 1 state-complexity formula: the price of
// the r trade-off.
func ExampleStateBits() {
	fmt.Printf("n=1024, r=1:   2^%.0f states\n", sspp.StateBits(1024, 1))
	fmt.Printf("n=1024, r=512: 2^%.0f states\n", sspp.StateBits(1024, 512))
	// Output:
	// n=1024, r=1:   2^99 states
	// n=1024, r=512: 2^71303241 states
}
