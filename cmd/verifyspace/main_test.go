package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRejectsBadSizes: a population below 2 agents (or above 12 for the
// CIW analysis), a signature space below 2 values or a budget below 1
// configuration is an error before any check runs, not a panic or a
// silently replaced value.
func TestRejectsBadSizes(t *testing.T) {
	for _, args := range []string{
		"-check detect-complete -n -1",
		"-check detect-sound -n 1",
		"-check detect-sound -n 2 -sig 1",
		"-check verify-closure -n 2 -sig 0",
		"-check detect-sound -n 2 -budget 0",
		"-check detect-sound -n 2 -budget -7",
		"-check ciw -n 13",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args), &out)
		if err == nil || out.Len() != 0 {
			t.Errorf("%s: err %v, printed %q; want an error and no output", args, err, out.String())
		}
	}
}

// TestChecksReport pins the report of each check, wall time aside.
func TestChecksReport(t *testing.T) {
	wall := regexp.MustCompile(`(?m)^  wall time: .*\n`)
	for _, tc := range []struct{ args, want string }{
		{"-check detect-sound -n 2", `detect soundness (Lemma E.2), n=2, sig space=2, refresh c=3
  configurations explored: 24 (truncated: false, max depth 5)
  violations: 0
verdict: reachable space fully closed — ⊤ unreachable, soundness PROVED at this size
`},
		{"-check detect-complete -n 3", `detect completeness (Lemma E.1(b) dual), n=3 with duplicated rank 1
  configurations explored: 2 (truncated: false, max depth 1)
  violations: 1
verdict: ⊤ reachable (first at depth 1) — detection cannot be evaded
`},
		{"-check verify-closure -n 2", `verify-layer closure (Lemma 6.1), n=2, sig space=2, refresh c=3
  configurations explored: 59 (truncated: false, max depth 6)
  violations: 0
verdict: reachable space fully closed — safe configurations stay safe, closure PROVED at this size
`},
		{"-check verify-closure -n 3 -budget 500", `verify-layer closure (Lemma 6.1), n=3, sig space=2, refresh c=3
  configurations explored: 500 (truncated: true, max depth 5)
  violations: 0
verdict: no hard reset within the explored bound (bounded guarantee)
`},
		{"-check ciw -n 5", `CIW baseline count-vector analysis, n=5: 126 configurations (multisets of n ranks)
  silent configurations:       1
  safe-set configurations:     1 (the 120 permutations are one multiset)
  safe set silent:             true
  all configurations reach it: true
verdict: closure + probabilistic stabilization PROVED exactly at this size
`},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got := wall.ReplaceAllString(out.String(), ""); got != tc.want {
			t.Errorf("%s printed:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

func TestUnknownCheck(t *testing.T) {
	if err := run([]string{"-check", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("an unknown check must fail")
	}
}
