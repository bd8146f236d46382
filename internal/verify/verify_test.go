package verify

import (
	"testing"

	"sspp/internal/coin"
	"sspp/internal/detect"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// env bundles the fixtures shared by the tests.
type env struct {
	p      Params
	sample coin.Sampler
	sc     *detect.Scratch
	ev     *sim.Events
}

func newEnv(n, r int) *env {
	return &env{
		p:      NewParams(n, r),
		sample: coin.FromPRNG(rng.New(1)),
		sc:     detect.NewScratch(),
		ev:     sim.NewEvents(),
	}
}

func (e *env) interact(uRank int32, u *State, vRank int32, v *State) (Action, Action) {
	return Interact(e.p, uRank, u, vRank, v, e.sample, e.sample, e.sc, e.ev)
}

func TestInitState(t *testing.T) {
	e := newEnv(8, 4)
	s := InitState(e.p, 3)
	if s.Generation != 0 {
		t.Fatalf("generation = %d, want 0", s.Generation)
	}
	if s.Probation != e.p.PMax {
		t.Fatalf("probation = %d, want %d (fresh verifiers are on probation)", s.Probation, e.p.PMax)
	}
	if s.DC == nil || s.DC.Err {
		t.Fatal("DC must start clean")
	}
}

func TestProbationDecrements(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 2)
	p0 := u.Probation
	e.interact(1, u, 2, v)
	if u.Probation != p0-1 || v.Probation != p0-1 {
		t.Fatalf("probation = %d/%d, want %d", u.Probation, v.Probation, p0-1)
	}
	u.Probation, v.Probation = 0, 0
	e.interact(1, u, 2, v)
	if u.Probation != 0 {
		t.Fatal("probation must floor at 0")
	}
}

func TestSameGenerationRunsDetection(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 1) // duplicate rank!
	uAct, vAct := e.interact(1, u, 1, v)
	// Fresh verifiers are on probation, so the ⊤ must hard-reset.
	if uAct != ActHardReset || vAct != ActHardReset {
		t.Fatalf("actions = %v/%v, want hard resets", uAct, vAct)
	}
	if e.ev.Count(sim.EvTop) != 2 || e.ev.Count(sim.EvVerifyHardReset) != 2 {
		t.Fatalf("events: %s", e.ev)
	}
}

func TestTopOffProbationSoftResets(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 1)
	u.Probation, v.Probation = 1, 1 // will hit 0 during the interaction
	uAct, vAct := e.interact(1, u, 1, v)
	if uAct != ActNone || vAct != ActNone {
		t.Fatalf("actions = %v/%v, want none (soft reset)", uAct, vAct)
	}
	if u.Generation != 1 || v.Generation != 1 {
		t.Fatalf("generations = %d/%d, want 1", u.Generation, v.Generation)
	}
	if u.Probation != e.p.PMax || v.Probation != e.p.PMax {
		t.Fatal("soft reset must re-arm probation")
	}
	if u.DC.Err || v.DC.Err {
		t.Fatal("soft reset must clear ⊤")
	}
	if e.ev.Count(sim.EvSoftReset) != 2 {
		t.Fatalf("events: %s", e.ev)
	}
}

func TestGenerationEpidemic(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 2)
	v.Generation = 1
	u.Probation = 1 // hits 0 during the interaction; v arbitrary
	uAct, vAct := e.interact(1, u, 2, v)
	if uAct != ActNone || vAct != ActNone {
		t.Fatalf("actions = %v/%v, want none", uAct, vAct)
	}
	if u.Generation != 1 {
		t.Fatalf("u.generation = %d, want 1 (adopted)", u.Generation)
	}
	if u.Probation != e.p.PMax {
		t.Fatal("epidemic soft reset must re-arm probation")
	}
}

func TestGenerationWraparound(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 2)
	u.Generation, v.Generation = 5, 0 // 5+1 ≡ 0 (mod 6)
	u.Probation = 1
	uAct, _ := e.interact(1, u, 2, v)
	if uAct != ActNone || u.Generation != 0 {
		t.Fatalf("wraparound failed: action %v, generation %d", uAct, u.Generation)
	}
}

func TestBehindOnProbationHardResets(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 2)
	v.Generation = 1 // u behind by one but on probation
	uAct, vAct := e.interact(1, u, 2, v)
	if uAct != ActHardReset {
		t.Fatalf("uAct = %v, want hard reset", uAct)
	}
	if vAct != ActNone {
		t.Fatalf("vAct = %v, want none (Protocol 2 line 13 resets u only)", vAct)
	}
}

func TestGenerationGapHardResets(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 2)
	u.Generation, v.Generation = 0, 2
	u.Probation, v.Probation = 0, 0
	uAct, _ := e.interact(1, u, 2, v)
	if uAct != ActHardReset {
		t.Fatalf("gap of 2 must hard-reset, got %v", uAct)
	}
}

func TestCleanPairNoAction(t *testing.T) {
	e := newEnv(8, 4)
	u, v := InitState(e.p, 1), InitState(e.p, 2)
	for i := 0; i < 1000; i++ {
		uAct, vAct := e.interact(1, u, 2, v)
		if uAct != ActNone || vAct != ActNone {
			t.Fatalf("clean pair produced action at step %d", i)
		}
	}
	if e.ev.Count(sim.EvTop) != 0 {
		t.Fatal("clean pair raised ⊤")
	}
}

// TestSoftResetRepairsTamperedMessages is the §3.2 scenario in miniature:
// correct ranking, zero probation, one corrupted circulating message. The ⊤
// must trigger a soft reset (not hard), after which the generation-1 states
// are clean and no further errors occur.
func TestSoftResetRepairsTamperedMessages(t *testing.T) {
	const n = 8
	e := newEnv(n, 4)
	states := make([]*State, n)
	for i := range states {
		states[i] = InitState(e.p, int32(i+1))
		states[i].Probation = 0
	}
	if !detect.TamperForeignMessage(e.p.Detect, 1, states[0].DC) {
		t.Fatal("tamper failed")
	}
	r := rng.New(42)
	hardResets := 0
	for i := 0; i < 3_000_000; i++ {
		a, b := r.Pair(n)
		ua, va := e.interact(int32(a+1), states[a], int32(b+1), states[b])
		if ua == ActHardReset || va == ActHardReset {
			hardResets++
		}
	}
	if hardResets > 0 {
		t.Fatalf("%d hard resets on a correct ranking with corrupted messages", hardResets)
	}
	if e.ev.Count(sim.EvSoftReset) == 0 {
		t.Fatal("corruption never triggered a soft reset")
	}
	// All agents must have converged to a common generation with clean DC.
	gen := states[0].Generation
	for i, s := range states {
		if s.Generation != gen {
			t.Fatalf("agent %d in generation %d, others in %d", i, s.Generation, gen)
		}
		if s.DC.Err {
			t.Fatalf("agent %d still in ⊤", i)
		}
	}
}

// TestDuplicateRankAlwaysEscalates: with a genuine rank collision and zero
// probation timers, soft resets occur but the inconsistency reappears until
// a hard reset is finally requested (the probation mechanism's escalation).
func TestDuplicateRankAlwaysEscalates(t *testing.T) {
	const n = 8
	e := newEnv(n, 4)
	ranks := []int32{1, 1, 3, 4, 5, 6, 7, 8}
	states := make([]*State, n)
	for i := range states {
		states[i] = InitState(e.p, ranks[i])
		states[i].Probation = 0
	}
	r := rng.New(7)
	sawHard := false
	for i := 0; i < 5_000_000 && !sawHard; i++ {
		a, b := r.Pair(n)
		ua, va := e.interact(ranks[a], states[a], ranks[b], states[b])
		if ua == ActHardReset || va == ActHardReset {
			sawHard = true
		}
	}
	if !sawHard {
		t.Fatal("duplicate rank never escalated to a hard reset")
	}
}

func TestDefaultPMax(t *testing.T) {
	if DefaultPMax(64, 8) <= 0 {
		t.Fatal("PMax must be positive")
	}
	if DefaultPMax(2, 0) < 8 {
		t.Fatal("degenerate inputs must clamp")
	}
	if DefaultPMax(1024, 1) <= DefaultPMax(1024, 512) {
		t.Fatal("PMax must scale with n/r")
	}
}

// TestReinitIntoAllocs pins the allocations of building a verifier state at
// g = 64: a fresh one costs the State (shared with its detection state), the
// row headers, the 2g² message slab and Obs; a recycled one costs nothing.
func TestReinitIntoAllocs(t *testing.T) {
	p := NewParams(256, 64)
	const rank = 70
	if g := p.Detect.Partition().SizeOf(rank); g != 64 {
		t.Fatalf("group size %d, want 64", g)
	}
	fresh := testing.AllocsPerRun(20, func() { ReinitInto(p, rank, nil) })
	if fresh > 4 {
		t.Fatalf("ReinitInto(nil) allocated %.1f objects, want at most 4", fresh)
	}
	s := ReinitInto(p, rank, nil)
	recycled := testing.AllocsPerRun(20, func() { ReinitInto(p, rank, s) })
	if recycled != 0 {
		t.Fatalf("ReinitInto on a recycled state allocated %.1f objects, want 0", recycled)
	}
}
