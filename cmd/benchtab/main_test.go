package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeSeedsRejected checks that a negative -seeds is an error in
// both modes, reported before any table or grid runs.
func TestNegativeSeedsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-seeds", "-3", "-experiment", "T2"},
		{"-quick", "-seeds", "-3", "-json", "-experiment", "T2"},
		{"-quick", "-seeds", "-3", "-compare"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("%v: err = %v, want a -seeds error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %d bytes before rejecting", args, out.Len())
		}
	}
}

// TestListAndSeedsZero checks that -list names every experiment and that
// -seeds 0 still means the default.
func TestListAndSeedsZero(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list", "-seeds", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	ids := strings.Fields(out.String())
	if len(ids) == 0 || ids[0] != "T1" {
		t.Fatalf("-list printed %q", out.String())
	}
}
