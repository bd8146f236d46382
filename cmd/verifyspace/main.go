// Command verifyspace runs the repository's exhaustive/bounded verification
// artifacts (internal/modelcheck and its keyed sub-package):
//
//   - detect soundness: enumerate every schedule and every random draw of
//     DetectCollision_r from a correct initialization and confirm the error
//     state ⊤ is unreachable (Lemma E.2, exhaustively for tiny n, bounded
//     otherwise);
//   - detect completeness: with a duplicated rank, confirm ⊤ is reachable;
//   - verify-closure: Lemma 6.1 for the StableVerify_r layer — from safe
//     configurations (single-generation and the two-generation soft-reset
//     wave) no schedule and no draws ever request a hard reset;
//   - ciw: count-vector analysis of the CIW baseline (n ≤ 12) through the
//     rule the simulator runs — closure (the permutations, one multiset, are
//     silent) and probabilistic stabilization (every multiset reaches them).
//
// Usage:
//
//	verifyspace -check detect-sound -n 3 -budget 50000
//	verifyspace -check detect-complete -n 3
//	verifyspace -check verify-closure -n 2
//	verifyspace -check ciw -n 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sspp/internal/modelcheck"
	"sspp/internal/modelcheck/keyed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "verifyspace:", err)
		os.Exit(1)
	}
}

// run parses args, runs one check and prints its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verifyspace", flag.ContinueOnError)
	var (
		check   = fs.String("check", "detect-sound", "detect-sound | detect-complete | verify-closure | ciw")
		n       = fs.Int("n", 3, "population size (at least 2)")
		budget  = fs.Int("budget", 100_000, "configuration budget for bounded checks (at least 1)")
		sig     = fs.Int("sig", 2, "signature-space override, at least 2 (detect and verify-closure checks)")
		refresh = fs.Int("refresh", 3, "signature refresh constant (detect and verify-closure checks)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("-n %d: a population needs at least 2 agents", *n)
	}
	if *sig < 2 {
		return fmt.Errorf("-sig %d: a signature space needs at least 2 values", *sig)
	}
	if *budget < 1 {
		return fmt.Errorf("-budget %d: a bounded check needs at least 1 configuration", *budget)
	}
	opt := modelcheck.Options{MaxStates: *budget}

	start := time.Now() //sspp:allow rngdiscipline -- wall-clock progress reporting; verification itself is exhaustive, not sampled
	switch *check {
	case "detect-sound":
		m, err := modelcheck.NewDetectMachine(*n, *n, nil, int32(*sig), *refresh)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "detect soundness (Lemma E.2), n=%d, sig space=%d, refresh c=%d\n", *n, *sig, *refresh)
		return closure(w, start, modelcheck.Explore(m, modelcheck.AnyTop, true, opt),
			"⊤ reachable from a correct initialization — soundness violated",
			"NO ⊤ within the explored bound (bounded guarantee)",
			"reachable space fully closed — ⊤ unreachable, soundness PROVED at this size")
	case "detect-complete":
		ranks := make([]int32, *n)
		for i := range ranks {
			ranks[i] = int32(i + 1)
		}
		ranks[1] = 1 // duplicate
		m, err := modelcheck.NewDetectMachine(*n, *n, ranks, int32(*sig), *refresh)
		if err != nil {
			return err
		}
		rep := modelcheck.Explore(m, modelcheck.AnyTop, true, opt)
		fmt.Fprintf(w, "detect completeness (Lemma E.1(b) dual), n=%d with duplicated rank 1\n", *n)
		printExplored(w, rep)
		var fail error
		if rep.Violations == 0 {
			fail = errors.New("⊤ not reachable despite a duplicate rank — completeness violated")
		}
		return report(w, start, fail,
			fmt.Sprintf("⊤ reachable (first at depth %d) — detection cannot be evaded", rep.FirstViolationDepth))
	case "verify-closure":
		m, err := modelcheck.NewVerifyMachine(*n, *n, nil, int32(*sig), *refresh, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "verify-layer closure (Lemma 6.1), n=%d, sig space=%d, refresh c=%d\n", *n, *sig, *refresh)
		return closure(w, start, modelcheck.Explore(m, modelcheck.HardReset, true, opt),
			"hard reset reachable from a safe configuration — closure violated",
			"no hard reset within the explored bound (bounded guarantee)",
			"reachable space fully closed — safe configurations stay safe, closure PROVED at this size")
	case "ciw":
		rep, err := keyed.CheckCIW(*n)
		if err != nil {
			return err
		}
		perms := 1
		for k := 2; k <= *n; k++ {
			perms *= k
		}
		fmt.Fprintf(w, "CIW baseline count-vector analysis, n=%d: %d configurations (multisets of n ranks)\n", *n, rep.Configurations)
		fmt.Fprintf(w, "  silent configurations:       %d\n", rep.Silent)
		fmt.Fprintf(w, "  safe-set configurations:     %d (the %d permutations are one multiset)\n", rep.Target, perms)
		fmt.Fprintf(w, "  safe set silent:             %v\n", rep.TargetSilent)
		fmt.Fprintf(w, "  all configurations reach it: %v\n", rep.Unreached == 0)
		var fail error
		if rep.Unreached > 0 || !rep.TargetSilent {
			fail = errors.New("CIW verification failed")
		}
		return report(w, start, fail, "closure + probabilistic stabilization PROVED exactly at this size")
	}
	return fmt.Errorf("unknown check %q", *check)
}

// closure reports a search from safe configurations for a bad one: any
// violation fails it, and a truncated search earns only the bounded
// verdict.
func closure(w io.Writer, start time.Time, rep modelcheck.Report, violated, bounded, proved string) error {
	printExplored(w, rep)
	var fail error
	if rep.Violations > 0 {
		fail = errors.New(violated)
	}
	if rep.Truncated {
		proved = bounded
	}
	return report(w, start, fail, proved)
}

// printExplored prints the exploration statistics.
func printExplored(w io.Writer, rep modelcheck.Report) {
	fmt.Fprintf(w, "  configurations explored: %d (truncated: %v, max depth %d)\n",
		rep.Explored, rep.Truncated, rep.MaxDepth)
	fmt.Fprintf(w, "  violations: %d\n", rep.Violations)
}

// report ends every check: the wall time since start, then the verdict
// or, when the check failed, its error.
func report(w io.Writer, start time.Time, fail error, verdict string) error {
	fmt.Fprintf(w, "  wall time: %s\n", time.Since(start).Round(time.Millisecond)) //sspp:allow rngdiscipline -- wall-clock progress reporting; verification itself is exhaustive, not sampled
	if fail != nil {
		return fail
	}
	fmt.Fprintln(w, "verdict: "+verdict)
	return nil
}
