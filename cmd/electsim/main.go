// Command electsim runs a single ElectLeader_r configuration and reports its
// stabilization behaviour, optionally starting from an adversarial
// configuration and optionally tracing notable events.
//
// Usage:
//
//	electsim -n 64 -r 8 -adversary two-leaders -seed 1 -v
//
// Flags:
//
//	-n int        population size (default 64)
//	-r int        trade-off parameter 1..n/2 (default 8)
//	-seed uint    protocol & adversary seed (default 1)
//	-sched uint   scheduler seed (default seed+1)
//	-adversary s  adversarial start class ("list" to enumerate; default clean)
//	-max uint     interaction budget (default: 1000·(n²/r)·ln n)
//	-synthetic    run fully derandomized (Appendix B synthetic coins)
//	-v            print the event log and rank vector
package main

import (
	"flag"
	"fmt"
	"os"

	"sspp"
)

// traceRun executes the run while printing a phase timeline. The cadence
// defaults to 1/400 of the default budget so a typical run fits on a screen.
func traceRun(sys *sspp.System, sched, maxI, cadence uint64) sspp.Result {
	if cadence == 0 {
		budget := maxI
		if budget == 0 {
			budget = sys.DefaultBudget()
		}
		cadence = budget / 400
		if cadence == 0 {
			cadence = 1
		}
	}
	tl := newTimeline(sys.N())
	var last sspp.Snapshot
	res := sys.Run(
		sspp.Until(sspp.SafeSet),
		sspp.SchedulerSeed(sched),
		sspp.MaxInteractions(maxI),
		sspp.PollEvery(cadence),
		sspp.Observe(cadence, func(s sspp.Snapshot) {
			marks := ""
			if s.HardResets > last.HardResets {
				marks += "H"
			}
			if s.SoftResets > last.SoftResets {
				marks += "S"
			}
			if s.Tops > last.Tops {
				marks += "T"
			}
			// Only record rows at composition changes or marks, so long quiet
			// phases collapse.
			if marks != "" || s.Resetting != last.Resetting || s.Ranking != last.Ranking ||
				s.Verifying != last.Verifying || s.Leaders != last.Leaders || s.InSafeSet {
				tl.add(row{
					T:         s.Interactions,
					Resetting: s.Resetting,
					Ranking:   s.Ranking,
					Verifying: s.Verifying,
					Leaders:   s.Leaders,
					Marks:     marks,
					Safe:      s.InSafeSet,
				})
			}
			last = s
		}),
	)
	tl.render(os.Stdout, 48)
	fmt.Println(tl.summary())
	return res
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 64, "population size")
		r         = flag.Int("r", 8, "trade-off parameter r (1..n/2)")
		seed      = flag.Uint64("seed", 1, "protocol & adversary seed")
		sched     = flag.Uint64("sched", 0, "scheduler seed (default seed+1)")
		adv       = flag.String("adversary", "", "adversarial start class (\"list\" to enumerate)")
		maxI      = flag.Uint64("max", 0, "interaction budget (0 = default)")
		synthetic = flag.Bool("synthetic", false, "use synthetic coins (Appendix B)")
		verbose   = flag.Bool("v", false, "print event log and ranks")
		doTrace   = flag.Bool("trace", false, "print a phase timeline of the run")
		cadence   = flag.Uint64("cadence", 0, "trace sampling cadence in interactions (0 = adaptive)")
	)
	flag.Parse()

	if *adv == "list" {
		for _, c := range sspp.AdversaryClasses() {
			fmt.Printf("  %-20s %s\n", c, sspp.DescribeAdversary(c))
		}
		return nil
	}
	if *sched == 0 {
		*sched = *seed + 1
	}

	sys, err := sspp.New(sspp.Config{N: *n, R: *r, Seed: *seed, SyntheticCoins: *synthetic})
	if err != nil {
		return err
	}
	if *adv != "" {
		if err := sys.Inject(sspp.Adversary(*adv), *seed+2); err != nil {
			return err
		}
		fmt.Printf("injected adversary %q: %s\n", *adv, sspp.DescribeAdversary(sspp.Adversary(*adv)))
	}
	fmt.Printf("ElectLeader_r  n=%d r=%d seed=%d sched=%d synthetic=%v\n",
		*n, *r, *seed, *sched, *synthetic)
	fmt.Printf("state space: 2^%.0f states per agent (Fig. 1 formula)\n",
		sspp.StateBits(*n, *r))

	var res sspp.Result
	if *doTrace {
		res = traceRun(sys, *sched, *maxI, *cadence)
	} else {
		res = sys.Run(
			sspp.Until(sspp.SafeSet),
			sspp.SchedulerSeed(*sched),
			sspp.MaxInteractions(*maxI),
		)
	}
	if !res.Stabilized {
		fmt.Printf("NOT stabilized within %d interactions (leaders=%d)\n",
			res.Interactions, sys.Leaders())
		if *verbose {
			fmt.Println("events:", sys.Events())
		}
		return fmt.Errorf("stabilization budget exhausted")
	}
	leader, _ := sys.Leader()
	fmt.Printf("stabilized: %d interactions (parallel time %.1f)\n",
		res.Interactions, res.ParallelTime)
	fmt.Printf("leader: agent %d   hard resets: %d\n", leader, sys.HardResets())
	if *verbose {
		fmt.Println("events:", sys.Events())
		fmt.Println("ranks:", sys.Ranks())
	}
	return nil
}
