// timeline.go renders the -trace population-composition timeline: how
// many agents are resetting / ranking / verifying over the course of a run,
// when resets strike, and when the leader count collapses to one. The
// output is a plain ASCII timeline suitable for terminals and logs that
// makes the phase structure of ElectLeader_r visible (reset wave →
// dormancy → ranking → countdown → verification).

package main

import (
	"fmt"
	"io"
	"strings"
)

// row is one timeline sample.
type row struct {
	// T is the interaction count at the sample.
	T uint64
	// Resetting, Ranking, Verifying are the role counts.
	Resetting, Ranking, Verifying int
	// Leaders is the number of agents currently outputting "leader".
	Leaders int
	// Marks holds single-letter annotations for events since the previous
	// sample (e.g. "H" hard reset, "S" soft reset, "T" ⊤ raised).
	Marks string
	// Safe reports whether the configuration is in the safe set.
	Safe bool
}

// timeline accumulates rows for a population of size n.
type timeline struct {
	n    int
	rows []row
}

// newTimeline returns an empty timeline for a population of size n. It
// panics if n <= 0.
func newTimeline(n int) *timeline {
	if n <= 0 {
		panic("electsim: population size must be positive")
	}
	return &timeline{n: n}
}

// add appends a sample.
func (t *timeline) add(r row) { t.rows = append(t.rows, r) }

// render writes the timeline as one line per sample:
//
//	t=1,234  [RRRRAAAAAVVVV....]  leaders=3  HS
//
// The bar uses width characters: 'R' resetting, 'A' ranking (assigning),
// 'V' verifying, '*' for the safe set. Bars are proportional to the role
// counts, rounded with largest-remainder so they always fill exactly.
func (t *timeline) render(w io.Writer, width int) {
	if width <= 0 {
		width = 40
	}
	fmt.Fprintf(w, "population timeline (n=%d): R=resetting A=ranking V=verifying, *=safe set\n", t.n)
	for _, r := range t.rows {
		bar := t.bar(r, width)
		marks := r.Marks
		if marks != "" {
			marks = "  " + marks
		}
		fmt.Fprintf(w, "t=%-12s [%s] leaders=%-4d%s\n", group(r.T), bar, r.Leaders, marks)
	}
}

// bar renders the stacked role bar for one row.
func (t *timeline) bar(r row, width int) string {
	if r.Safe {
		return strings.Repeat("*", width)
	}
	counts := [3]int{r.Resetting, r.Ranking, r.Verifying}
	letters := [3]byte{'R', 'A', 'V'}
	total := counts[0] + counts[1] + counts[2]
	if total <= 0 {
		return strings.Repeat(".", width)
	}
	// Largest-remainder apportionment of width among the three roles.
	var cells [3]int
	var rem [3]float64
	used := 0
	for i, c := range counts {
		exact := float64(c) * float64(width) / float64(total)
		cells[i] = int(exact)
		rem[i] = exact - float64(cells[i])
		used += cells[i]
	}
	for used < width {
		best := 0
		for i := 1; i < 3; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		cells[best]++
		rem[best] = -1
		used++
	}
	var b strings.Builder
	b.Grow(width)
	for i, c := range cells {
		for k := 0; k < c; k++ {
			b.WriteByte(letters[i])
		}
	}
	return b.String()
}

// summary returns a one-line digest: sample count, first safe sample, and
// the total marks seen.
func (t *timeline) summary() string {
	firstSafe := "-"
	marks := map[rune]int{}
	for _, r := range t.rows {
		if r.Safe && firstSafe == "-" {
			firstSafe = group(r.T)
		}
		for _, m := range r.Marks {
			marks[m]++
		}
	}
	var parts []string
	for _, m := range []rune{'H', 'S', 'T'} {
		if marks[m] > 0 {
			parts = append(parts, fmt.Sprintf("%c×%d", m, marks[m]))
		}
	}
	events := strings.Join(parts, " ")
	if events == "" {
		events = "none"
	}
	return fmt.Sprintf("%d samples, first safe at t=%s, events: %s", len(t.rows), firstSafe, events)
}

// group formats v with thousands separators.
func group(v uint64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
		b.WriteByte(',')
	}
	for i := lead; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	return b.String()
}
