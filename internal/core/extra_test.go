package core

import "testing"

func TestMessagesCoherentDetectsTamper(t *testing.T) {
	p := mustNew(t, 12, 6)
	for i := 0; i < 12; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	if !p.InSafeSet() {
		t.Fatal("clean verifiers must be safe")
	}
	if !p.TamperMessages(3) {
		t.Fatal("tamper failed")
	}
	if p.InSafeSet() {
		t.Fatal("tampered messages must leave the safe set (coherence check)")
	}
}

func TestDuplicateMessageLeavesSafeSet(t *testing.T) {
	p := mustNew(t, 12, 6)
	for i := 0; i < 12; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	if !p.DuplicateMessage(0, 2) {
		t.Fatal("duplication failed")
	}
	if p.InSafeSet() {
		t.Fatal("duplicated message must leave the safe set")
	}
}

func TestDuplicateMessageWrongRoles(t *testing.T) {
	p := mustNew(t, 12, 6)
	if p.DuplicateMessage(0, 1) {
		t.Fatal("duplication between rankers must fail")
	}
}

func TestAblationConstantsWiredThrough(t *testing.T) {
	consts := DefaultConstants(12, 6)
	consts.DisableSoftReset = true
	consts.DisableLoadBalance = true
	p, err := New(12, 6, WithConstants(consts))
	if err != nil {
		t.Fatal(err)
	}
	if !p.VerifyParams().HardOnly {
		t.Fatal("HardOnly not wired through")
	}
}

func TestGenerationsAccessor(t *testing.T) {
	p := mustNew(t, 8, 2)
	for i := 0; i < 8; i++ {
		p.ForceVerifier(i, int32(i+1))
	}
	p.SetGeneration(0, 3)
	gens := p.Generations()
	if len(gens) != 2 || gens[0] != 0 || gens[1] != 3 {
		t.Fatalf("Generations = %v, want [0 3]", gens)
	}
}

func TestVerifyBitsAndRankingBits(t *testing.T) {
	if VerifyBits(256, 16) <= DetectBits(16) {
		t.Fatal("verify bits must exceed its detect component")
	}
	if RankingBits(256, 16) <= RankingBits(256, 1) {
		t.Fatal("ranking bits must grow with r")
	}
	if RankingBits(256, 0.5) != RankingBits(256, 1) {
		t.Fatal("r below 1 must clamp")
	}
	if ElectLeaderBits(256, 0) != ElectLeaderBits(256, 1) {
		t.Fatal("ElectLeaderBits must clamp r")
	}
}

func TestEventsAttached(t *testing.T) {
	ev := mustNew(t, 8, 2).Events()
	if ev != nil {
		t.Fatal("nil expected without WithEvents")
	}
}
