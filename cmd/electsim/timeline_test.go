package main

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTimeline(0)
}

func TestAddAndLen(t *testing.T) {
	tl := newTimeline(8)
	if len(tl.rows) != 0 {
		t.Fatal("fresh timeline not empty")
	}
	tl.add(row{T: 1, Ranking: 8})
	tl.add(row{T: 2, Verifying: 8})
	if len(tl.rows) != 2 {
		t.Fatalf("len(rows) = %d, want 2", len(tl.rows))
	}
}

func TestBarProportions(t *testing.T) {
	tl := newTimeline(8)
	bar := tl.bar(row{Resetting: 4, Ranking: 2, Verifying: 2}, 8)
	if bar != "RRRRAAVV" {
		t.Fatalf("bar = %q, want RRRRAAVV", bar)
	}
}

func TestBarAlwaysFillsWidthProperty(t *testing.T) {
	tl := newTimeline(100)
	f := func(a, b, c uint8, wRaw uint8) bool {
		w := int(wRaw%60) + 1
		bar := tl.bar(row{Resetting: int(a), Ranking: int(b), Verifying: int(c)}, w)
		return len(bar) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBarSafeAndEmpty(t *testing.T) {
	tl := newTimeline(4)
	if got := tl.bar(row{Safe: true}, 5); got != "*****" {
		t.Fatalf("safe bar = %q", got)
	}
	if got := tl.bar(row{}, 5); got != "....." {
		t.Fatalf("empty bar = %q", got)
	}
}

func TestRender(t *testing.T) {
	tl := newTimeline(4)
	tl.add(row{T: 10, Resetting: 4, Marks: "H"})
	tl.add(row{T: 2000, Verifying: 4, Leaders: 1, Safe: true})
	var buf bytes.Buffer
	tl.render(&buf, 8)
	out := buf.String()
	for _, want := range []string{"RRRRRRRR", "********", "leaders=1", "H", "t=2,000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderDefaultWidth(t *testing.T) {
	tl := newTimeline(4)
	tl.add(row{T: 1, Ranking: 4})
	var buf bytes.Buffer
	tl.render(&buf, 0)
	if !strings.Contains(buf.String(), strings.Repeat("A", 40)) {
		t.Fatal("default width not applied")
	}
}

func TestSummary(t *testing.T) {
	tl := newTimeline(4)
	tl.add(row{T: 5, Marks: "HT"})
	tl.add(row{T: 1500, Safe: true, Marks: "S"})
	s := tl.summary()
	for _, want := range []string{"2 samples", "first safe at t=1,500", "H×1", "S×1", "T×1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
	empty := newTimeline(4)
	if !strings.Contains(empty.summary(), "events: none") {
		t.Fatal("empty summary should report no events")
	}
}

func TestGroup(t *testing.T) {
	cases := map[uint64]string{1: "1", 999: "999", 1000: "1,000", 123456789: "123,456,789"}
	for v, want := range cases {
		if got := group(v); got != want {
			t.Errorf("group(%d) = %q, want %q", v, got, want)
		}
	}
}
