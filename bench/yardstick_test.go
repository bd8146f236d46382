package main

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestCycleVisitsEverySlotOnce(t *testing.T) {
	const size = 1000
	next := make([]byte, 4*size)
	cycle(next, 9)
	seen := make([]bool, size)
	i := uint32(0)
	for k := 0; k < size; k++ {
		if seen[i] {
			t.Fatalf("slot %d visited twice after %d steps", i, k)
		}
		seen[i] = true
		i = binary.LittleEndian.Uint32(next[4*i:])
	}
	if i != 0 {
		t.Errorf("after %d steps the chase is at %d, not back at 0", size, i)
	}
}

func TestLocalPassMS(t *testing.T) {
	passes := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		done int
		want float64
	}{
		{0, 1.5},  // before the first pass: passes 0 and 1
		{1, 2},    // passes 0-2
		{4, 4},    // passes 1-5
		{8, 7},    // after the last pass: passes 5-7
		{20, 4.5}, // out of range: all of them
	} {
		if got := localPassMS(passes, c.done); got != c.want {
			t.Errorf("localPassMS(done=%d) = %v, want %v", c.done, got, c.want)
		}
	}
}

func TestTimingMetricsAreScaledByTheYardstick(t *testing.T) {
	def, _ := workloadByName("species-ciw")
	cfg := tinyConfig(t, 1)
	st, err := drive(def.make(cfg), cfg, smokeRun, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.yardMS) < 2 {
		t.Fatalf("%d yardstick passes ran, want one before the loop and one after", len(st.yardMS))
	}
	for _, ms := range st.yardMS {
		if !(ms > 0) {
			t.Fatalf("yardstick pass of %v ms", ms)
		}
	}
	if len(st.opPass) != len(st.opMS) || len(st.setupPass) != len(st.setupS) {
		t.Fatalf("%d/%d operation and %d/%d set-up pass indexes", len(st.opPass), len(st.opMS), len(st.setupPass), len(st.setupS))
	}
	m := endToEndMetrics(st)
	var ops, setups []float64
	for i, ms := range st.opMS {
		ops = append(ops, ms*yardstickRefMS/localPassMS(st.yardMS, st.opPass[i]))
	}
	for i, s := range st.setupS {
		setups = append(setups, s*yardstickRefMS/localPassMS(st.yardMS, st.setupPass[i]))
	}
	for name, want := range map[string]float64{"op_ms.mean": mean(ops), "setup_s": median(setups)} {
		if got := m[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestStatusKB(t *testing.T) {
	status := "Name:\tbench\nVmHWM:\t   13536 kB\nVmRSS:\t   12000 kB\n"
	if kb, err := statusKB(status, "VmHWM:"); err != nil || kb != 13536 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if _, err := statusKB(status, "VmSwap:"); err == nil {
		t.Error("a missing field was read")
	}
	if _, err := statusKB("VmHWM:\t13536\n", "VmHWM:"); err == nil {
		t.Error("a line without its unit was read")
	}
}

func TestEveryPassAfterTheFirstClosesAResidentSetWindow(t *testing.T) {
	ys, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer ys.close()
	for k := 0; k < 3; k++ {
		ys.pass()
	}
	if ys.rssErr != nil {
		t.Fatal(ys.rssErr)
	}
	if len(ys.rssMB) != 2 {
		t.Fatalf("%d windows after 3 passes, want 2", len(ys.rssMB))
	}
	for _, mb := range ys.rssMB {
		// The process holds at least the test binary's heap beyond the
		// yardstick's mapping, which the windows leave out.
		if !(mb > 0) {
			t.Errorf("window peak %v MB", mb)
		}
	}
}
