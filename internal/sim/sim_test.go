package sim

import "testing"

func TestEvents(t *testing.T) {
	e := NewEvents()
	if e.Count("x") != 0 {
		t.Fatal("fresh sink should be empty")
	}
	e.IncAt("reset", 10)
	e.IncAt("reset", 30)
	e.Inc("top")
	if e.Count("reset") != 2 || e.Count("top") != 1 {
		t.Fatalf("counts wrong: %s", e)
	}
	if at, ok := e.FirstAt("reset"); !ok || at != 10 {
		t.Fatalf("FirstAt = %d,%v", at, ok)
	}
	if at, ok := e.LastAt("reset"); !ok || at != 30 {
		t.Fatalf("LastAt = %d,%v", at, ok)
	}
	if _, ok := e.FirstAt("missing"); ok {
		t.Fatal("missing event should report !ok")
	}
	if got := e.Names(); len(got) != 2 || got[0] != "reset" || got[1] != "top" {
		t.Fatalf("Names = %v", got)
	}
	if e.String() != "reset=2 top=1" {
		t.Fatalf("String = %q", e.String())
	}
	e.Reset()
	if e.Count("reset") != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestEventsNilSafe(t *testing.T) {
	var e *Events
	e.Inc("x") // must not panic
	if e.Count("x") != 0 {
		t.Fatal("nil sink should count zero")
	}
	if _, ok := e.FirstAt("x"); ok {
		t.Fatal("nil sink FirstAt should be !ok")
	}
	if _, ok := e.LastAt("x"); ok {
		t.Fatal("nil sink LastAt should be !ok")
	}
	if e.Names() != nil {
		t.Fatal("nil sink Names should be nil")
	}
	e.Reset() // must not panic
}
