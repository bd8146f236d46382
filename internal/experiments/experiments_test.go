package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "TX",
		Title:  "demo",
		Claim:  "something holds",
		Header: []string{"a", "bb"},
	}
	tb.Append("1", "2")
	tb.Append("333", "4")
	tb.Note("observation %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== TX: demo ==", "claim: something holds", "a    bb", "333", "note: observation 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestIDsOrderAndRegistry(t *testing.T) {
	want := strings.Fields("T1 F1 F2 T2 T3 T4 T5 T6 T7 T8 T9 T10 T11 T12 T13 T14 T15 T16 " +
		"A1 A2 A3 A4 S1 S2 S3 S4 T-ring T-churn")
	if ids := IDs(); strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("presentation order:\n%v\nwant:\n%v", ids, want)
	}
	for _, id := range want {
		if Lookup(id) == nil {
			t.Fatalf("registry missing %s", id)
		}
	}
	if Lookup("T0") != nil {
		t.Fatal("an unknown ID must have no generator")
	}
}

// TestDesignExperimentMap checks the experiment map of DESIGN.md §5 against
// the registry: its ID column lists IDs() in presentation order.
func TestDesignExperimentMap(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| ID | Workload | Paper statement |"
	_, table, ok := strings.Cut(string(doc), header+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no table headed %q", header)
	}
	var ids []string
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the separator
		if !strings.HasPrefix(line, "|") {
			break
		}
		ids = append(ids, strings.TrimSpace(strings.Split(line, "|")[1]))
	}
	if got, want := strings.Join(ids, " "), strings.Join(IDs(), " "); got != want {
		t.Fatalf("DESIGN.md §5 lists\n%s\nIDs() is\n%s", got, want)
	}
}

func TestFmtU(t *testing.T) {
	cases := map[uint64]string{
		0:          "0",
		999:        "999",
		1000:       "1,000",
		1234567:    "1,234,567",
		1000000000: "1,000,000,000",
	}
	for v, want := range cases {
		if got := fmtU(v); got != want {
			t.Errorf("fmtU(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestSciBits(t *testing.T) {
	if got := sciBits(1234); got != "1,234" {
		t.Fatalf("sciBits small = %q", got)
	}
	if got := sciBits(2.5e9); got != "2.50e9" {
		t.Fatalf("sciBits large = %q", got)
	}
}

func TestRegimesFor(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		rs := regimesFor(n)
		if len(rs) != 3 || rs[0] != 1 {
			t.Fatalf("regimesFor(%d) = %v", n, rs)
		}
		for _, r := range rs {
			if r < 1 || r > n/2 {
				t.Fatalf("regimesFor(%d) produced out-of-range r = %d", n, r)
			}
		}
	}
}

func TestConfigSeeds(t *testing.T) {
	if (Config{}).seeds() != 5 {
		t.Fatal("default seeds")
	}
	if (Config{Quick: true}).seeds() != 3 {
		t.Fatal("quick seeds")
	}
	if (Config{Seeds: 9}).seeds() != 9 {
		t.Fatal("explicit seeds")
	}
}

// TestQuickExperimentsSmoke runs every experiment generator end to end in
// quick mode with a single seed and checks that each produces a plausible
// table. This keeps the full harness exercised by `go test` while
// cmd/benchtab produces the real (multi-seed, full-size) tables.
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not -short")
	}
	cfg := Config{Quick: true, Seeds: 1}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb := Lookup(id)(cfg)
			if tb.ID != id {
				t.Fatalf("table ID = %q", tb.ID)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if tb.Title == "" || tb.Claim == "" || len(tb.Header) == 0 {
				t.Fatal("table metadata incomplete")
			}
			var buf bytes.Buffer
			tb.Render(&buf)
			if buf.Len() == 0 {
				t.Fatal("empty render")
			}
		})
	}
}

// TestT8SoundnessZeroFalsePositives asserts the hard guarantee of Lemma
// E.1(a) through the experiment harness itself.
func TestT8SoundnessZeroFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("not -short")
	}
	tb := T8Soundness(Config{Quick: true, Seeds: 2})
	for _, row := range tb.Rows {
		if row[3] != "0" {
			t.Fatalf("false positives in soundness row %v", row)
		}
		if row[4] != "ok" || row[5] != "ok" {
			t.Fatalf("invariant violation in soundness row %v", row)
		}
	}
}
