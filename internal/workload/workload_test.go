package workload

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func TestKindWireNames(t *testing.T) {
	for _, k := range []Kind{KindTransient, KindInject, KindJoin, KindLeave} {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if string(b) != k.String() {
			t.Fatalf("wire name %q vs String %q", b, k)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Fatalf("round trip of %q: %v, %v", b, back, err)
		}
	}
	if _, err := Kind(9).MarshalText(); err == nil {
		t.Error("unknown kind marshalled")
	}
	var k Kind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unknown wire name unmarshalled")
	}
}

func TestSortEventsLeavesBeforeJoins(t *testing.T) {
	events := []Event{
		{At: 20, Kind: KindJoin, Seed: 1},
		{At: 10, Kind: KindJoin, Seed: 2},
		{At: 10, Kind: KindTransient, K: 1, Seed: 3},
		{At: 10, Kind: KindLeave, Seed: 4},
		{At: 10, Kind: KindLeave, Seed: 5},
	}
	SortEvents(events)
	want := []uint64{4, 5, 2, 3, 1} // leaves first within t=10, stable otherwise
	for i, ev := range events {
		if ev.Seed != want[i] {
			t.Fatalf("position %d holds seed %d, want %d (schedule %v)", i, ev.Seed, want[i], events)
		}
	}
}

func TestPoissonDeterministicReplacePairs(t *testing.T) {
	p := Poisson{Start: 100, End: 0, Rate: 4, Replace: true, Class: "x", Seed: 7}
	a := p.Events(64, 2000)
	b := p.Events(64, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the arrival process is not deterministic in its seed")
	}
	if len(a) == 0 || len(a)%2 != 0 {
		t.Fatalf("%d events from a replacement process (want a positive even count)", len(a))
	}
	for i := 0; i < len(a); i += 2 {
		l, j := a[i], a[i+1]
		if l.Kind != KindLeave || j.Kind != KindJoin || l.At != j.At {
			t.Fatalf("arrival %d is not a leave+join pair at one instant: %+v, %+v", i/2, l, j)
		}
		if j.Class != "x" {
			t.Fatalf("join class %q, want %q", j.Class, "x")
		}
		if l.At < 100 || l.At >= 2000 {
			t.Fatalf("arrival at %d outside [100, 2000)", l.At)
		}
	}
	if got := (Poisson{Rate: 0, Seed: 7}).Events(64, 2000); got != nil {
		t.Fatalf("zero-rate process emitted %d events", len(got))
	}
}

func TestPoissonJoinFraction(t *testing.T) {
	all := Poisson{End: 0, Rate: 8, JoinFrac: 1, Class: "c", Seed: 3}.Events(32, 4000)
	if len(all) == 0 {
		t.Fatal("no arrivals")
	}
	for _, ev := range all {
		if ev.Kind != KindJoin || ev.Class != "c" {
			t.Fatalf("JoinFrac=1 produced %+v", ev)
		}
	}
	none := Poisson{End: 0, Rate: 8, JoinFrac: 0, Seed: 3}.Events(32, 4000)
	for _, ev := range none {
		if ev.Kind != KindLeave || ev.Class != "" {
			t.Fatalf("JoinFrac=0 produced %+v", ev)
		}
	}
}

func TestBurstsExpansion(t *testing.T) {
	b := Bursts{Start: 50, End: 0, Every: 100, Joins: 2, Leaves: 3, Class: "g", Seed: 9}
	events := b.Events(16, 260)
	// Bursts at 50, 150, 250 — each 3 leaves then 2 joins.
	if len(events) != 15 {
		t.Fatalf("%d events, want 15", len(events))
	}
	for i, at := range []uint64{50, 150, 250} {
		group := events[i*5 : i*5+5]
		for j, ev := range group {
			if ev.At != at {
				t.Fatalf("burst %d event %d at %d, want %d", i, j, ev.At, at)
			}
			wantKind := KindLeave
			if j >= 3 {
				wantKind = KindJoin
			}
			if ev.Kind != wantKind {
				t.Fatalf("burst %d event %d kind %v, want %v", i, j, ev.Kind, wantKind)
			}
		}
	}
	if got := (Bursts{Every: 0, Joins: 1}).Events(16, 260); got != nil {
		t.Fatal("zero-period bursts emitted events")
	}
}

func TestStepExpansion(t *testing.T) {
	up := Step{At: 40, Delta: 3, Class: "s", Seed: 2}.Events(16, 100)
	if len(up) != 3 {
		t.Fatalf("%d events for delta +3", len(up))
	}
	for _, ev := range up {
		if ev.Kind != KindJoin || ev.At != 40 || ev.Class != "s" {
			t.Fatalf("step join event %+v", ev)
		}
	}
	down := Step{At: 40, Delta: -2, Seed: 2}.Events(16, 100)
	if len(down) != 2 || down[0].Kind != KindLeave || down[1].Kind != KindLeave {
		t.Fatalf("step leave events %+v", down)
	}
}

func TestCompileSortsAcrossPhases(t *testing.T) {
	events := Compile([]Phase{
		OneShot{Ev: Event{At: 300, Kind: KindTransient, K: 2, Seed: 1}},
		Bursts{Start: 100, End: 401, Every: 200, Joins: 1, Leaves: 1, Seed: 2},
	}, 16, 1000)
	var last uint64
	for i, ev := range events {
		if ev.At < last {
			t.Fatalf("event %d at %d after %d", i, ev.At, last)
		}
		last = ev.At
	}
	if len(events) != 5 {
		t.Fatalf("%d events, want 5 (bursts at 100 and 300 plus the transient)", len(events))
	}
}

func TestValidateCapabilityTable(t *testing.T) {
	full := Caps{Protocol: "p", Injectable: true, Churnable: true}
	cases := []struct {
		name    string
		events  []Event
		n0      int
		caps    Caps
		wantErr string
	}{
		{"ok mixed", []Event{
			{At: 10, Kind: KindTransient, K: 2},
			{At: 20, Kind: KindLeave}, {At: 20, Kind: KindJoin},
			{At: 30, Kind: KindInject, Class: "c"},
		}, 8, full, ""},
		{"unsorted", []Event{{At: 20, Kind: KindJoin}, {At: 10, Kind: KindLeave}}, 8, full, "not sorted"},
		{"transient needs injectable", []Event{{At: 1, Kind: KindTransient, K: 1}}, 8,
			Caps{Protocol: "p", Churnable: true}, "injectable capability"},
		{"inject needs injectable", []Event{{At: 1, Kind: KindInject}}, 8,
			Caps{Protocol: "p", Churnable: true}, "injectable capability"},
		{"transient size", []Event{{At: 1, Kind: KindTransient, K: 0}}, 8, full, "size 0 < 1"},
		{"churn needs churnable", []Event{{At: 1, Kind: KindJoin}}, 8,
			Caps{Protocol: "p", Injectable: true}, "churnable capability"},
		{"below minimum", []Event{{At: 1, Kind: KindLeave}}, 2, full, "requires at least"},
		{"above maximum", []Event{{At: 1, Kind: KindJoin}}, 8,
			Caps{Protocol: "p", Churnable: true, MinN: 2, MaxN: 8}, "at most 8 agents"},
		{"replacement pair ok", []Event{{At: 1, Kind: KindLeave}, {At: 1, Kind: KindJoin}}, 8,
			Caps{Protocol: "p", Churnable: true, MinN: 8, MaxN: 8}, ""},
		{"replacement hint", []Event{{At: 1, Kind: KindLeave}}, 8,
			Caps{Protocol: "p", Churnable: true, MinN: 8, MaxN: 8}, "replacement churn only"},
		{"unknown kind", []Event{{At: 1, Kind: Kind(9)}}, 8, full, "unknown event kind"},
	}
	for _, c := range cases {
		err := Validate(c.events, c.n0, c.caps)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
}

func TestUsesFaultsAndChurn(t *testing.T) {
	faults := []Event{{Kind: KindTransient, K: 1}, {Kind: KindInject}}
	churn := []Event{{Kind: KindJoin}, {Kind: KindLeave}}
	if !UsesFaults(faults) || UsesFaults(churn) {
		t.Error("UsesFaults misclassifies")
	}
	if !UsesChurn(churn) || UsesChurn(faults) {
		t.Error("UsesChurn misclassifies")
	}
}

// unknownPhase exercises the conservative default of PhasesUse.
type unknownPhase struct{}

func (unknownPhase) Events(int, uint64) []Event { return nil }

func TestPhasesUse(t *testing.T) {
	cases := []struct {
		name          string
		phases        []Phase
		faults, churn bool
	}{
		{"transient", []Phase{OneShot{Ev: Event{Kind: KindTransient}}}, true, false},
		{"inject", []Phase{OneShot{Ev: Event{Kind: KindInject}}}, true, false},
		{"join", []Phase{OneShot{Ev: Event{Kind: KindJoin}}}, false, true},
		{"poisson", []Phase{Poisson{Rate: 1}}, false, true},
		{"bursts", []Phase{Bursts{Every: 1, Joins: 1}}, false, true},
		{"step", []Phase{Step{Delta: 1}}, false, true},
		{"mixed", []Phase{OneShot{Ev: Event{Kind: KindTransient}}, Step{Delta: 1}}, true, true},
		{"unknown", []Phase{unknownPhase{}}, true, true},
	}
	for _, c := range cases {
		faults, churn := PhasesUse(c.phases)
		if faults != c.faults || churn != c.churn {
			t.Errorf("%s: PhasesUse = (%v, %v), want (%v, %v)", c.name, faults, churn, c.faults, c.churn)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Version:  TraceVersion,
		Protocol: "ciw",
		N:        4,
		Steps:    2,
		Pairs:    []int32{0, 1, 2, 3},
		Keys:     []uint64{1, 2, 1, 3},
		Events: []TraceEvent{
			{Event: Event{At: 1, Kind: KindJoin, Class: "c", Seed: 5},
				Deltas: []KeyDelta{{Key: 1, Delta: 1}}, NAfter: 5},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", tr, back)
	}
}

func TestTraceValidate(t *testing.T) {
	base := func() Trace {
		return Trace{Version: TraceVersion, Protocol: "p", N: 4, Steps: 1, Pairs: []int32{0, 1}}
	}
	cases := []struct {
		name    string
		mutate  func(*Trace)
		wantErr string
	}{
		{"future version", func(tr *Trace) { tr.Version = 2 }, "version 2"},
		{"tiny population", func(tr *Trace) { tr.N = 1 }, "population 1"},
		{"pair count", func(tr *Trace) { tr.Pairs = tr.Pairs[:1] }, "pair entries"},
		{"key count", func(tr *Trace) { tr.Keys = []uint64{1} }, "key entries"},
		{"event past end", func(tr *Trace) {
			tr.Events = []TraceEvent{{Event: Event{At: 9}}}
		}, "past the"},
		{"events out of order", func(tr *Trace) {
			tr.Steps, tr.Pairs = 2, []int32{0, 1, 2, 3}
			tr.Events = []TraceEvent{{Event: Event{At: 2}}, {Event: Event{At: 1}}}
		}, "out of order"},
	}
	for _, c := range cases {
		tr := base()
		c.mutate(&tr)
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
}

// FuzzValidateSchedule: Validate must never panic and must be deterministic,
// whatever schedule and capability set it is handed; accepted schedules are
// sorted and never let the population walk below two agents at a group
// boundary.
func FuzzValidateSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0}, 8, byte(3))
	f.Add([]byte{3, 0, 0, 0, 2, 1, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0}, 4, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, n0 int, capBits byte) {
		var events []Event
		for len(data) >= 8 {
			chunk := data[:8]
			data = data[8:]
			events = append(events, Event{
				At:    uint64(binary.LittleEndian.Uint16(chunk[0:2])),
				Kind:  Kind(chunk[2] % 6), // includes invalid kinds 4 and 5
				K:     int(int8(chunk[3])),
				Class: string(rune('a' + chunk[4]%3)),
				Seed:  uint64(binary.LittleEndian.Uint16(chunk[6:8])),
			})
		}
		caps := Caps{
			Protocol:   "fuzz",
			Injectable: capBits&1 != 0,
			Churnable:  capBits&2 != 0,
			MinN:       int(capBits >> 2 & 3),
			MaxN:       int(capBits >> 4 & 15),
		}
		err1 := Validate(events, n0, caps)
		if err2 := Validate(events, n0, caps); (err1 == nil) != (err2 == nil) {
			t.Fatal("Validate is not deterministic")
		}
		if err1 != nil {
			return
		}
		n := n0
		for i, ev := range events {
			if i > 0 && ev.At < events[i-1].At {
				t.Fatalf("accepted schedule unsorted at %d", i)
			}
			switch ev.Kind {
			case KindJoin:
				n++
			case KindLeave:
				n--
			}
			if i+1 == len(events) || events[i+1].At != ev.At {
				if n < 2 {
					t.Fatalf("accepted schedule drains the population to %d at %d", n, ev.At)
				}
			}
		}
	})
}

// FuzzTraceDecode: arbitrary bytes never panic the trace decoder, and
// anything it accepts passes Validate and re-encodes.
func FuzzTraceDecode(f *testing.F) {
	var seedBuf bytes.Buffer
	seed := &Trace{Version: TraceVersion, Protocol: "p", N: 4, Steps: 1, Pairs: []int32{0, 1}}
	if err := seed.Encode(&seedBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"version":1,"n":2,"steps":0,"events":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid trace: %v", err)
		}
		if err := tr.Encode(&bytes.Buffer{}); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
	})
}
