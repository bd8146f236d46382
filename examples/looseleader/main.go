// Looseleader: contrast the paper's strict self-stabilization with the
// loosely-stabilizing leader election of the related work (Sudo et al.):
// loose stabilization converges fast from any configuration but holds the
// leader only for a finite, τ-controlled time. The protocol comes from the
// public registry (Config.Protocol = "loosele") and runs through the same
// engine as ElectLeader_r — having no safe set, it is measured by the
// engine's fallback: correct output held through a confirmation window.
//
//	go run ./examples/looseleader [-n 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"sspp"
)

func main() {
	n := flag.Int("n", 64, "population size")
	flag.Parse()

	// The timer ticks on an agent's own interactions and the leader's
	// heartbeat epidemic needs Θ(log n) of them to arrive, so the
	// interesting τ scale is Θ(ln n).
	ln := math.Log(float64(*n))
	fmt.Printf("loosely-stabilizing leader election, n = %d\n\n", *n)
	fmt.Printf("%-12s %-16s %-18s\n", "τ/ln(n)", "converged after", "held unique leader")

	for _, factor := range []float64{0.5, 1, 4, 16} {
		tau := int32(factor * ln)
		if tau < 2 {
			// Keep the tiny-τ row honest at small n: Config.Tau = 0 would
			// select the registry default (4·ln n) instead, and τ = 1,
			// which never elects a unique leader, is rejected.
			tau = 2
		}
		sys, err := sspp.New(sspp.Config{Protocol: sspp.ProtocolLooseLE, N: *n, Tau: tau})
		if err != nil {
			log.Fatal(err)
		}
		// The batched scheduler deals the identical uniform schedule.
		sched := sspp.NewBatch(7, 0)
		res := sys.Run(
			sspp.WithScheduler(sched),
			sspp.MaxInteractions(uint64(200*float64(*n)*ln)),
			sspp.Confirm(uint64(4**n)),
		)
		conv := "never"
		if res.Stabilized {
			conv = fmt.Sprintf("%d", res.StabilizedAt)
		}
		// Holding fraction over a follow-up window, on the same schedule.
		held, polls := 0, 0
		for i := 0; i < 400; i++ {
			if err := sys.StepSched(sched, uint64(*n)); err != nil {
				log.Fatal(err)
			}
			polls++
			if sys.Correct() {
				held++
			}
		}
		fmt.Printf("%-12.2f %-16s %6.1f%% of the time\n",
			factor, conv, 100*float64(held)/float64(polls))
	}

	fmt.Println("\nsmall τ: timers expire before the leader's heartbeat epidemic arrives,")
	fmt.Println("so spurious leaders keep appearing; large τ holds the leader long — but")
	fmt.Println("never forever. ElectLeader_r (examples/quickstart) holds it forever.")
}
