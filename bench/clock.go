package main

import (
	"math"
	"time"
)

// now is the benchmark's one wall-clock read. Every latency, span and
// set-up time is a difference of two now() values, which Go takes from the
// monotonic clock; nothing read here ever reaches a simulation input.
func now() time.Time {
	return time.Now() //sspp:allow rngdiscipline -- harness timing
}

// clockCostNS is the cost of one now() call in nanoseconds (best of five
// batches). Per-call spans subtract it, so a 100 ns Interact is not
// reported as 130 ns.
func clockCostNS() float64 {
	const reads = 1 << 15
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := now()
		last := start
		for i := 0; i < reads; i++ {
			last = now()
		}
		if ns := float64(last.Sub(start)) / reads; ns < best {
			best = ns
		}
	}
	return best
}
