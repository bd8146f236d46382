package sim

import "testing"

func TestEvents(t *testing.T) {
	e := NewEvents()
	if e.Count(EvTop) != 0 || e.String() != "" {
		t.Fatal("fresh vector should be empty")
	}
	e.Inc(EvSoftReset)
	e.Inc(EvSoftReset)
	e.Inc(EvTop)
	e.Inc(EvAwaken)
	if e.Count(EvSoftReset) != 2 || e.Count(EvTop) != 1 || e.Count(EvHardReset) != 0 {
		t.Fatalf("counts wrong: %s", e)
	}
	if e.String() != "core.awaken=1 verify.soft_reset=2 verify.top=1" {
		t.Fatalf("String = %q", e.String())
	}
	if e.CountNamed("verify.soft_reset") != 2 || e.CountNamed("core.missing") != 0 {
		t.Fatal("CountNamed must read the named counter and count an unknown name zero")
	}
}

func TestEventsNilSafe(t *testing.T) {
	var e *Events
	e.Inc(EvTop) // must not panic
	if e.Count(EvTop) != 0 {
		t.Fatal("nil vector should count zero")
	}
	if e.String() != "" {
		t.Fatal("nil vector should render empty")
	}
}
