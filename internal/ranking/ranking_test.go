package ranking

import (
	"math"
	"testing"
	"testing/quick"

	"sspp/internal/coin"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

func TestDefaultParamsValidate(t *testing.T) {
	cases := []struct{ n, r int }{
		{8, 1}, {8, 4}, {64, 1}, {64, 8}, {64, 32}, {128, 11}, {256, 128},
	}
	for _, c := range cases {
		p := DefaultParams(c.n, c.r)
		if err := p.Validate(); err != nil {
			t.Errorf("DefaultParams(%d, %d): %v", c.n, c.r, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Params{
		{N: 1, R: 1, LabelCap: 4, LECount0: 1, SleepCap: 1, IDSpace: 8},
		{N: 8, R: 0, LabelCap: 4, LECount0: 1, SleepCap: 1, IDSpace: 512},
		{N: 8, R: 5, LabelCap: 4, LECount0: 1, SleepCap: 1, IDSpace: 512},
		{N: 8, R: 2, LabelCap: 2, LECount0: 1, SleepCap: 1, IDSpace: 512}, // pool < n
		{N: 8, R: 2, LabelCap: 8, LECount0: 0, SleepCap: 1, IDSpace: 512},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestPhaseString(t *testing.T) {
	for ph, want := range map[Phase]string{
		PhaseLeaderElection: "leader-election",
		PhaseSheriff:        "sheriff",
		PhaseDeputy:         "deputy",
		PhaseRecipient:      "recipient",
		PhaseSleeper:        "sleeper",
		PhaseRanked:         "ranked",
		Phase(99):           "phase(99)",
	} {
		if got := ph.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", ph, got, want)
		}
	}
}

func TestRankFromLabelBijectionProperty(t *testing.T) {
	// Given any per-deputy counts summing to n, the lexicographic mapping
	// must be a bijection onto [1, n].
	f := func(seed uint64) bool {
		r := rng.New(seed)
		numDep := 1 + r.Intn(8)
		counts := make([]int32, numDep)
		n := 0
		for i := range counts {
			counts[i] = int32(1 + r.Intn(6))
			n += int(counts[i])
		}
		seen := make([]bool, n)
		for d := int32(1); d <= int32(numDep); d++ {
			for j := int32(1); j <= counts[d-1]; j++ {
				s := &State{HasLabel: true, Label: Label{Deputy: d, Serial: j}, Channel: counts, Rank: 1}
				rank := s.rankFromLabel()
				if rank < 1 || int(rank) > n || seen[rank-1] {
					return false
				}
				seen[rank-1] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankFromLabelWithoutInfo(t *testing.T) {
	s := &State{Rank: 1}
	if got := s.rankFromLabel(); got != 1 {
		t.Fatalf("labelless agent rank = %d, want 1", got)
	}
}

func TestBecomeSheriffSingleBadge(t *testing.T) {
	p := DefaultParams(8, 1)
	s := InitState(p)
	s.becomeSheriff(p)
	if s.Phase != PhaseDeputy {
		t.Fatalf("r=1 sheriff should immediately deputize, got %v", s.Phase)
	}
	if s.DeputyID != 1 || s.Counter != 1 || !s.HasLabel || s.Label != (Label{1, 1}) {
		t.Fatalf("bad deputy state: %+v", s)
	}
	if s.Channel[0] != 1 {
		t.Fatalf("deputy channel[0] = %d, want 1", s.Channel[0])
	}
}

func TestDeputizeSplitsBadges(t *testing.T) {
	p := DefaultParams(16, 4)
	w := InitState(p)
	w.becomeSheriff(p) // badges [1,4]
	x := InitState(p)
	x.Phase = PhaseRecipient
	deputize(p, w, x)
	if w.Phase != PhaseSheriff || w.LowBadge != 1 || w.HighBadge != 2 {
		t.Fatalf("w = %+v, want sheriff [1,2]", w)
	}
	if x.Phase != PhaseSheriff || x.LowBadge != 3 || x.HighBadge != 4 {
		t.Fatalf("x = %+v, want sheriff [3,4]", x)
	}
	// Split again: both should deputize.
	y := InitState(p)
	y.Phase = PhaseRecipient
	deputize(p, w, y)
	if w.Phase != PhaseDeputy || w.DeputyID != 1 {
		t.Fatalf("w = %+v, want deputy 1", w)
	}
	if y.Phase != PhaseDeputy || y.DeputyID != 2 {
		t.Fatalf("y = %+v, want deputy 2", y)
	}
}

func TestDeputizeDegeneratePool(t *testing.T) {
	p := DefaultParams(16, 4)
	w := InitState(p)
	w.Phase = PhaseSheriff
	w.LowBadge, w.HighBadge = 9, 3 // adversarial garbage
	x := InitState(p)
	x.Phase = PhaseRecipient
	deputize(p, w, x)
	if w.Phase != PhaseDeputy {
		t.Fatalf("degenerate sheriff should collapse to deputy, got %v", w.Phase)
	}
	if w.DeputyID < 1 || w.DeputyID > p.R {
		t.Fatalf("deputy id %d out of range", w.DeputyID)
	}
}

func TestLabelingGatedOnQuorum(t *testing.T) {
	p := DefaultParams(16, 4)
	w := InitState(p)
	w.Phase = PhaseDeputy
	w.DeputyID, w.Counter = 1, 1
	w.Channel[0] = 1 // sum 1 < r: labeling must not fire
	x := InitState(p)
	x.Phase = PhaseRecipient
	labeling(p, w, x)
	if x.HasLabel {
		t.Fatal("labeling fired before all deputies existed")
	}
	for i := int32(0); i < 4; i++ {
		w.Channel[i] = 1 // all deputies known
	}
	labeling(p, w, x)
	if !x.HasLabel || x.Label != (Label{Deputy: 1, Serial: 2}) {
		t.Fatalf("label = %+v, want (1,2)", x.Label)
	}
	if w.Counter != 2 || w.Channel[0] != 2 {
		t.Fatalf("deputy state after labeling: %+v", w)
	}
}

func TestLabelingPoolExhaustion(t *testing.T) {
	p := DefaultParams(16, 4)
	w := InitState(p)
	w.Phase = PhaseDeputy
	w.DeputyID, w.Counter = 1, p.LabelCap
	for i := range w.Channel {
		w.Channel[i] = 1
	}
	x := InitState(p)
	x.Phase = PhaseRecipient
	labeling(p, w, x)
	if x.HasLabel {
		t.Fatal("exhausted deputy handed out a label")
	}
}

func TestSleepEpidemicAndWake(t *testing.T) {
	p := DefaultParams(8, 2)
	sl := InitState(p)
	sl.Phase = PhaseSleeper
	sl.SleepT = 1
	rec := InitState(p)
	rec.Phase = PhaseRecipient
	sleep(p, sl, rec)
	if rec.Phase != PhaseSleeper || rec.SleepT != 1 {
		t.Fatalf("recipient not pulled into sleep: %+v", rec)
	}
	// Expire the timer: both wake.
	sl.SleepT = p.SleepCap
	sleep(p, sl, rec)
	if sl.Phase != PhaseRanked || rec.Phase != PhaseRanked {
		t.Fatalf("phases after wake: %v %v", sl.Phase, rec.Phase)
	}
}

func TestRankedWakesSleeper(t *testing.T) {
	p := DefaultParams(8, 2)
	rk := &State{Phase: PhaseRanked, Rank: 3}
	sl := InitState(p)
	sl.Phase = PhaseSleeper
	sl.HasLabel = true
	sl.Label = Label{Deputy: 1, Serial: 2}
	sl.Channel = []int32{4, 4}
	sleep(p, sl, rk)
	if sl.Phase != PhaseRanked {
		t.Fatalf("sleeper not woken by ranked agent: %v", sl.Phase)
	}
	if sl.Rank != 2 {
		t.Fatalf("woken rank = %d, want 2", sl.Rank)
	}
	if rk.Rank != 3 {
		t.Fatal("ranked agent must not change")
	}
}

func TestMergeChannelsMaxAndSleepTransition(t *testing.T) {
	p := DefaultParams(8, 2)
	u := InitState(p)
	u.Phase = PhaseRecipient
	u.Channel = []int32{5, 1}
	v := InitState(p)
	v.Phase = PhaseRecipient
	v.Channel = []int32{1, 2}
	mergeChannels(p, u, v)
	for i, want := range []int32{5, 2} {
		if u.Channel[i] != want || v.Channel[i] != want {
			t.Fatalf("channel[%d] = %d/%d, want %d", i, u.Channel[i], v.Channel[i], want)
		}
	}
	if u.Phase == PhaseSleeper || v.Phase == PhaseSleeper {
		t.Fatal("sum 7 < n=8 must not trigger sleep")
	}
}

func TestMergeChannelsSumTriggersSleep(t *testing.T) {
	p := DefaultParams(8, 2)
	u := InitState(p)
	u.Phase = PhaseRecipient
	u.Channel = []int32{4, 4}
	v := InitState(p)
	v.Phase = PhaseRecipient
	v.Channel = []int32{4, 4}
	mergeChannels(p, u, v)
	if u.Phase != PhaseSleeper || v.Phase != PhaseSleeper {
		t.Fatalf("sum == n should trigger sleep, got %v/%v", u.Phase, v.Phase)
	}
}

func TestInteractIsTotal(t *testing.T) {
	// Every phase pair must be handled without panicking, including with
	// adversarial states.
	p := DefaultParams(8, 2)
	r := rng.New(1)
	sample := coin.FromPRNG(r)
	phases := []Phase{PhaseLeaderElection, PhaseSheriff, PhaseDeputy, PhaseRecipient, PhaseSleeper, PhaseRanked}
	for _, pu := range phases {
		for _, pv := range phases {
			u, v := InitState(p), InitState(p)
			u.Phase, v.Phase = pu, pv
			u.LowBadge, u.HighBadge = 1, 2
			v.LowBadge, v.HighBadge = 1, 2 // deliberately conflicting
			u.DeputyID, v.DeputyID = 1, 1
			Interact(p, u, v, sample, sample)
		}
	}
}

func TestFastLEUniqueIDsGiveUniqueLeader(t *testing.T) {
	f := NewFastLE(16, coin.FromPRNG(rng.New(3)))
	r := rng.New(4)
	for i := 0; i < 100000 && !f.AllDone(); i++ {
		a, b := r.Pair(16)
		f.Interact(a, b)
	}
	if !f.AllDone() {
		t.Fatal("election did not conclude")
	}
	if got := f.Leaders(); got != 1 {
		t.Fatalf("leaders = %d, want 1", got)
	}
}

// TestLemmaD1AssignRanks: from a clean start the protocol produces a correct
// ranking and then remains silent (experiment T3's core).
func TestLemmaD1AssignRanks(t *testing.T) {
	cases := []struct{ n, r int }{{32, 1}, {32, 4}, {32, 16}, {64, 8}}
	for _, c := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			pr, err := NewProtocol(c.n, c.r, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			bound := uint64(400 * float64(c.n*c.n) / float64(c.r) * math.Log(float64(c.n)))
			// Step in chunks of n/4 interactions, checking the invariants
			// after every chunk, until the ranking is correct; then confirm
			// it stays correct for 4n more.
			sched, chunk := rng.New(seed+77), uint64(c.n/4)
			var done uint64
			for !pr.Correct() && done < bound {
				sim.Steps(pr, sched, chunk)
				done += chunk
				if err := pr.CheckInvariants(); err != nil {
					t.Fatalf("n=%d r=%d seed=%d: invariant at %d: %v", c.n, c.r, seed, done, err)
				}
			}
			if !pr.Correct() {
				t.Fatalf("n=%d r=%d seed=%d: no ranking after %d interactions (phases %v)",
					c.n, c.r, seed, done, pr.Phases())
			}
			sim.Steps(pr, sched, uint64(4*c.n))
			if err := pr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d r=%d seed=%d: invariant after ranking: %v", c.n, c.r, seed, err)
			}
			if !pr.Correct() {
				t.Fatalf("n=%d r=%d seed=%d: ranking lost within 4n interactions", c.n, c.r, seed)
			}
		}
	}
}

// TestAssignRanksSilence: once all agents are ranked, further interactions
// change nothing (the protocol is silent, as Lemma D.1 requires).
func TestAssignRanksSilence(t *testing.T) {
	pr, err := NewProtocol(32, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	for i := 0; i < 4_000_000 && !pr.Correct(); i++ {
		a, b := r.Pair(32)
		pr.Interact(a, b)
	}
	if !pr.Correct() {
		t.Fatal("ranking did not complete")
	}
	before := pr.Ranks()
	sim.Steps(pr, r, 50_000)
	after := pr.Ranks()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rank of agent %d changed after silence: %d -> %d", i, before[i], after[i])
		}
	}
}

func TestProtocolAccessors(t *testing.T) {
	pr, err := NewProtocol(8, 2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if pr.N() != 8 {
		t.Fatalf("N = %d", pr.N())
	}
	if pr.Correct() || pr.AllRanked() {
		t.Fatal("fresh protocol cannot be correct")
	}
	if got := pr.Phases()[PhaseLeaderElection]; got != 8 {
		t.Fatalf("fresh phases: %v", pr.Phases())
	}
	if pr.State(0) == nil || len(pr.Ranks()) != 8 {
		t.Fatal("accessors broken")
	}
	if err := pr.CheckInvariants(); err != nil {
		t.Fatalf("fresh invariants: %v", err)
	}
}

func TestNewProtocolRejectsBadParams(t *testing.T) {
	if _, err := NewProtocol(8, 7, rng.New(1)); err == nil {
		t.Fatal("expected error for r > n/2")
	}
}
