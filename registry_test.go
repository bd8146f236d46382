package sspp

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProtocolsCatalogue pins the registry contents and the capability
// matrix of DESIGN.md §7.
func TestProtocolsCatalogue(t *testing.T) {
	wantCaps := map[string][]string{
		ProtocolElectLeader: {CapabilityRanker, CapabilitySafeSet, CapabilityInjectable, CapabilitySnapshotter, CapabilityCompactable, CapabilityChurnable},
		ProtocolCIW:         {CapabilityRanker, CapabilitySafeSet, CapabilityInjectable, CapabilityCompactable, CapabilityChurnable},
		ProtocolNameRank:    {CapabilityRanker, CapabilitySafeSet, CapabilityCompactable},
		ProtocolLooseLE:     {CapabilityInjectable, CapabilityCompactable, CapabilityChurnable},
		ProtocolFastLE:      {CapabilitySafeSet},
	}
	infos := Protocols()
	if len(infos) != len(wantCaps) {
		t.Fatalf("registry has %d protocols, want %d", len(infos), len(wantCaps))
	}
	if infos[0].Name != ProtocolElectLeader {
		t.Fatalf("first protocol = %q, want the paper's", infos[0].Name)
	}
	for _, info := range infos {
		want, ok := wantCaps[info.Name]
		if !ok {
			t.Fatalf("unexpected protocol %q", info.Name)
		}
		if len(info.Capabilities) != len(want) {
			t.Fatalf("%s capabilities = %v, want %v", info.Name, info.Capabilities, want)
		}
		for i := range want {
			if info.Capabilities[i] != want[i] {
				t.Fatalf("%s capabilities = %v, want %v", info.Name, info.Capabilities, want)
			}
		}
		if info.Description == "" {
			t.Fatalf("%s has no description", info.Name)
		}
	}
}

// TestDesignRegistryTable checks the registry table of DESIGN.md §7 against
// Protocols(): the same protocols, each with the same capability set
// (parentheticals such as "(replacement only)" ignored) and the same
// self-stabilizing flag.
func TestDesignRegistryTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| Name | Paper anchor | Source | Capabilities | Stabilization |"
	_, table, ok := strings.Cut(string(doc), header+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no table headed %q", header)
	}
	type row struct {
		caps            []string
		selfStabilizing bool
	}
	parenthetical := regexp.MustCompile(`\([^)]*\)`)
	rows := map[string]row{}
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the separator
		if !strings.HasPrefix(line, "|") {
			break
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		if len(cols) != 5 {
			t.Fatalf("registry table row has %d columns, want 5: %s", len(cols), line)
		}
		var caps []string
		for _, c := range strings.Split(parenthetical.ReplaceAllString(cols[3], ""), ",") {
			caps = append(caps, strings.TrimSpace(c))
		}
		slices.Sort(caps)
		rows[strings.Trim(strings.TrimSpace(cols[0]), "`")] = row{
			caps:            caps,
			selfStabilizing: strings.HasPrefix(strings.TrimSpace(cols[4]), "self-stabilizing"),
		}
	}
	for _, info := range Protocols() {
		r, ok := rows[info.Name]
		if !ok {
			t.Errorf("protocol %q is missing from the DESIGN.md registry table", info.Name)
			continue
		}
		delete(rows, info.Name)
		caps := slices.Sorted(slices.Values(info.Capabilities))
		if !slices.Equal(r.caps, caps) {
			t.Errorf("%s: DESIGN.md lists capabilities %v, Protocols() reports %v", info.Name, r.caps, caps)
		}
		if r.selfStabilizing != info.SelfStabilizing {
			t.Errorf("%s: DESIGN.md says self-stabilizing=%v, Protocols() says %v", info.Name, r.selfStabilizing, info.SelfStabilizing)
		}
	}
	for name := range rows {
		t.Errorf("DESIGN.md registry table lists %q, which Protocols() does not", name)
	}
}

// registryConfigs returns a runnable small configuration per protocol.
func registryConfigs() map[string]Config {
	return map[string]Config{
		ProtocolElectLeader: {Protocol: ProtocolElectLeader, N: 16, R: 4, Seed: 1},
		ProtocolCIW:         {Protocol: ProtocolCIW, N: 16, Seed: 1},
		ProtocolNameRank:    {Protocol: ProtocolNameRank, N: 16, Seed: 1},
		ProtocolLooseLE:     {Protocol: ProtocolLooseLE, N: 16, Seed: 1},
		ProtocolFastLE:      {Protocol: ProtocolFastLE, N: 16, Seed: 1},
	}
}

// TestEveryProtocolRunsThroughTheEngine is the acceptance test of the
// registry refactor: every protocol stabilizes through the same public
// sys.Run path, with the SafeSet condition degrading to confirmed correct
// output exactly for the protocols without a safe set.
func TestEveryProtocolRunsThroughTheEngine(t *testing.T) {
	for name, cfg := range registryConfigs() {
		t.Run(name, func(t *testing.T) {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.ProtocolName(); got != name {
				t.Fatalf("ProtocolName = %q, want %q", got, name)
			}
			res := sys.Run(SchedulerSeed(7))
			if !res.Stabilized {
				t.Fatalf("%s did not stabilize within %d interactions", name, sys.DefaultBudget())
			}
			if !sys.Correct() {
				t.Fatalf("%s stabilized but output incorrect", name)
			}
			if sys.Leaders() != 1 {
				t.Fatalf("%s leaders = %d", name, sys.Leaders())
			}
			if leader, ok := sys.Leader(); !ok || leader < 0 || leader >= sys.N() {
				t.Fatalf("%s leader = (%d, %v)", name, leader, ok)
			}
			if sys.Interactions() != res.Interactions {
				t.Fatalf("%s Interactions = %d, run reported %d",
					name, sys.Interactions(), res.Interactions)
			}
			wantCond := "safe-set"
			if name == ProtocolLooseLE {
				wantCond = "correct-output" // the documented fallback
			}
			if res.Condition != wantCond {
				t.Fatalf("%s condition = %q, want %q", name, res.Condition, wantCond)
			}
			// Capability-dependent surfaces degrade, never panic.
			ranks := sys.Ranks()
			isRanker := name != ProtocolLooseLE && name != ProtocolFastLE
			if isRanker != (ranks != nil) {
				t.Fatalf("%s Ranks = %v, ranker capability mismatch", name, ranks)
			}
			if isRanker && !sys.CorrectRanking() {
				t.Fatalf("%s ranking incorrect after stabilization", name)
			}
			_ = sys.Snapshot()
		})
	}
}

// TestSafeSetFallbackConfirmWindow: for a protocol without a safe set, the
// fallback honours an explicit Confirm and reports the stretch start.
func TestSafeSetFallbackConfirmWindow(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolLooseLE, N: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const window = 256
	res := sys.Run(SchedulerSeed(4), Confirm(window))
	if !res.Stabilized {
		t.Fatal("loosele never held a leader through the window")
	}
	if res.Interactions-res.StabilizedAt < window {
		t.Fatalf("window not honoured: stretch %d < %d",
			res.Interactions-res.StabilizedAt, window)
	}
}

// TestInjectCapabilityDispatch: Inject works for injectable protocols,
// reports a clear error for the rest, and rejects unrealizable classes.
func TestInjectCapabilityDispatch(t *testing.T) {
	for name, cfg := range registryConfigs() {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = sys.Inject(AdversaryTwoLeaders, 9)
		switch name {
		case ProtocolElectLeader, ProtocolCIW, ProtocolLooseLE:
			if err != nil {
				t.Fatalf("%s: two-leaders injection failed: %v", name, err)
			}
			if got := sys.Leaders(); got != 2 {
				t.Fatalf("%s: leaders after injection = %d, want 2", name, got)
			}
			if res := sys.Run(SchedulerSeed(10)); !res.Stabilized {
				t.Fatalf("%s: no recovery from two leaders", name)
			}
		default:
			if err == nil {
				t.Fatalf("%s: injection must report the missing capability", name)
			}
		}
	}
	// ElectLeader-specific classes are rejected, not mangled, by baselines.
	sys, err := New(Config{Protocol: ProtocolCIW, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryMixedGenerations, 1); err == nil {
		t.Fatal("ciw accepted an ElectLeader-specific class")
	}
}

// TestTransientDispatch: mid-run transient faults strike injectable
// baselines and are cleanly skipped elsewhere.
func TestTransientDispatch(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolCIW, N: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Run(SchedulerSeed(3)); !res.Stabilized {
		t.Fatal("ciw setup failed")
	}
	hit, err := sys.InjectTransient(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) != 4 {
		t.Fatalf("ciw transient hit %d agents, want 4", len(hit))
	}
	if res := sys.Run(SchedulerSeed(6)); !res.Stabilized {
		t.Fatal("ciw did not recover from transient corruption")
	}
	noInj, err := New(Config{Protocol: ProtocolNameRank, N: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hit, err := noInj.InjectTransient(4, 5); err == nil || hit != nil {
		t.Fatalf("namerank transient = %v, %v; want an error (no capability)", hit, err)
	}
	// A scheduled fault burst on a non-injectable protocol fails the run up
	// front instead of silently reporting a clean result.
	res := noInj.Run(SchedulerSeed(6), InjectTransientAt(100, 4, 7))
	if res.Err == nil || res.Interactions != 0 || res.Stabilized {
		t.Fatalf("scheduled fault on namerank = %+v, want up-front Err", res)
	}
}

// TestNewCustomProtocol: a user-supplied protocol runs on the identical
// engine, including the safe-set fallback and custom conditions.
type countdownProto struct {
	n    int
	left int
}

func (p *countdownProto) N() int { return p.n }
func (p *countdownProto) Interact(a, b int) {
	if p.left > 0 {
		p.left--
	}
}
func (p *countdownProto) Correct() bool { return p.left == 0 }

func TestNewCustomProtocol(t *testing.T) {
	sys, err := NewCustom(&countdownProto{n: 8, left: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sys.ProtocolName() != "custom" {
		t.Fatalf("ProtocolName = %q", sys.ProtocolName())
	}
	res := sys.Run(SchedulerSeed(1), PollEvery(1), Confirm(1))
	if !res.Stabilized || res.Condition != "correct-output" {
		t.Fatalf("custom run = %+v", res)
	}
	if res.StabilizedAt != 100 {
		t.Fatalf("stabilized at %d, want 100", res.StabilizedAt)
	}
	if _, err := NewCustom(nil); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := NewCustom(&countdownProto{n: 1}); err == nil {
		t.Fatal("n < 2 accepted")
	}
}

// TestRegistryValidation: unknown names and invalid per-protocol configs
// are rejected with wrapped errors.
func TestRegistryValidation(t *testing.T) {
	if _, err := New(Config{Protocol: "bogus", N: 16}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := New(Config{Protocol: ProtocolCIW, N: 1}); err == nil {
		t.Fatal("n < 2 accepted for ciw")
	}
	if _, err := New(Config{Protocol: ProtocolCIW, N: 16, SyntheticCoins: true}); err == nil {
		t.Fatal("synthetic coins accepted outside electleader")
	}
}

// TestLooseLETauValidation: a LooseLE timeout whose τ+1 overflows int32
// (the random-state draw's bound) or a negative one is rejected at build
// time, both by New and by NewEnsemble, instead of panicking in a fault
// draw mid-run.
func TestLooseLETauValidation(t *testing.T) {
	for _, tau := range []int32{math.MaxInt32, -1} {
		if _, err := New(Config{Protocol: ProtocolLooseLE, N: 16, Tau: tau}); err == nil {
			t.Errorf("tau %d accepted by New", tau)
		}
		g := Grid{Protocols: []string{ProtocolLooseLE}, Points: []Point{{N: 16}},
			Adversaries: []Adversary{AdversaryRandomGarbage}, Seeds: 1, Tau: tau}
		if _, err := NewEnsemble(g); err == nil {
			t.Errorf("tau %d accepted by NewEnsemble", tau)
		}
	}
	// The largest valid timeout still builds, injects and corrupts.
	sys, err := New(Config{Protocol: ProtocolLooseLE, N: 16, Tau: math.MaxInt32 - 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryRandomGarbage, 3); err != nil {
		t.Fatal(err)
	}
	if hit, err := sys.InjectTransient(2, 3); err != nil || len(hit) != 2 {
		t.Fatalf("transient burst hit %d agents (err %v), want 2", len(hit), err)
	}
}

// TestLooseLETauOneRejected: at τ = 1 every timer is 0 after each
// interaction, so every non-leader that interacts promotes itself and no
// unique leader is ever reached (internal/baseline's TestLooseLETauFloor
// model-checks it). New and NewEnsemble reject it; τ = 2 runs and elects.
func TestLooseLETauOneRejected(t *testing.T) {
	if _, err := New(Config{Protocol: ProtocolLooseLE, N: 8, Tau: 1}); err == nil {
		t.Error("tau 1 accepted by New")
	}
	g := Grid{Protocols: []string{ProtocolLooseLE}, Points: []Point{{N: 8}}, Seeds: 1, Tau: 1}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("tau 1 accepted by NewEnsemble")
	}
	sys, err := New(Config{Protocol: ProtocolLooseLE, N: 8, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Run(SchedulerSeed(1), Confirm(1), PollEvery(1), MaxInteractions(1_000_000)); !res.Stabilized {
		t.Fatalf("tau 2 did not elect a unique leader: %+v", res)
	}
}

// TestRunBitStableAcrossSchedulerImplementations pins the cross-protocol
// determinism contract of the engine: for every registry protocol, a run
// under NewBatch deals the identical schedule as NewUniform with the same
// seed, so results and final configurations match bit for bit.
func TestRunBitStableAcrossSchedulerImplementations(t *testing.T) {
	for name, cfg := range registryConfigs() {
		t.Run(name, func(t *testing.T) {
			run := func(sched Scheduler) (Result, []int, int) {
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := sys.Run(WithScheduler(sched))
				return res, sys.Ranks(), sys.Leaders()
			}
			r1, ranks1, l1 := run(NewUniform(99))
			r2, ranks2, l2 := run(NewBatch(99, 0))
			if r1 != r2 || l1 != l2 {
				t.Fatalf("uniform %+v (leaders %d) != batch %+v (leaders %d)", r1, l1, r2, l2)
			}
			if len(ranks1) != len(ranks2) {
				t.Fatalf("rank vectors diverge: %v vs %v", ranks1, ranks2)
			}
			for i := range ranks1 {
				if ranks1[i] != ranks2[i] {
					t.Fatalf("rank %d diverges: %d vs %d", i, ranks1[i], ranks2[i])
				}
			}
		})
	}
}

// TestCrossProtocolEnsembleJSONWorkerCountIndependent is the golden
// determinism test for the generalized Ensemble: a grid crossed over every
// registry protocol produces byte-identical EnsembleResult and
// CompareResult JSON for workers ∈ {1, 4, GOMAXPROCS}.
func TestCrossProtocolEnsembleJSONWorkerCountIndependent(t *testing.T) {
	grid := Grid{
		Protocols:   []string{ProtocolElectLeader, ProtocolCIW, ProtocolNameRank, ProtocolLooseLE, ProtocolFastLE},
		Points:      []Point{{N: 16, R: 4}},
		Adversaries: []Adversary{"", AdversaryTwoLeaders},
		Seeds:       2,
		BaseSeed:    17,
	}
	render := func(workers int) ([]byte, []byte) {
		ens, err := NewEnsemble(grid, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res := ens.Run()
		var ej, cj bytes.Buffer
		if err := res.WriteJSON(&ej); err != nil {
			t.Fatal(err)
		}
		if err := res.Compare().WriteJSON(&cj); err != nil {
			t.Fatal(err)
		}
		return ej.Bytes(), cj.Bytes()
	}
	seqE, seqC := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		parE, parC := render(workers)
		if !bytes.Equal(seqE, parE) {
			t.Fatalf("ensemble JSON differs between workers=1 and workers=%d", workers)
		}
		if !bytes.Equal(seqC, parC) {
			t.Fatalf("compare JSON differs between workers=1 and workers=%d", workers)
		}
	}
	if !bytes.Contains(seqE, []byte(`"protocols"`)) {
		t.Fatalf("protocol-crossed export lacks the protocols field:\n%s", seqE)
	}
	// The pivot has one row per (point, adversary) with all protocols.
	res, err := NewEnsemble(grid, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	cmp := res.Run().Compare()
	if len(cmp.Rows) != 2 || len(cmp.Rows[0].Cells) != len(grid.Protocols) {
		t.Fatalf("pivot shape: %d rows × %d cells", len(cmp.Rows), len(cmp.Rows[0].Cells))
	}
	// Clean starts stabilize for every protocol; the adversarial column
	// fails exactly for the protocols without the injectable capability.
	for _, row := range cmp.Rows {
		for _, cell := range row.Cells {
			injectable := cell.Protocol != ProtocolNameRank && cell.Protocol != ProtocolFastLE
			switch {
			case row.Adversary == "" && cell.Recovered != grid.Seeds:
				t.Fatalf("%s clean cell: %d/%d recovered", cell.Protocol, cell.Recovered, grid.Seeds)
			case row.Adversary != "" && !injectable && cell.Failures != grid.Seeds:
				t.Fatalf("%s adversarial cell: %d failures, want all %d (unrealizable)",
					cell.Protocol, cell.Failures, grid.Seeds)
			case row.Adversary != "" && injectable && cell.Recovered == 0:
				t.Fatalf("%s never recovered from %s", cell.Protocol, row.Adversary)
			}
		}
	}
}

// TestEnsembleTransientMode: the TransientK recovery grid stabilizes,
// strikes, and reports post-fault recovery statistics.
func TestEnsembleTransientMode(t *testing.T) {
	ens, err := NewEnsemble(Grid{
		Points:     []Point{{N: 16, R: 4}},
		Seeds:      3,
		BaseSeed:   5,
		TransientK: 8,
	}, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	cell := ens.Run().Cells[0]
	if cell.Recovered == 0 {
		t.Fatal("no trial recovered from the transient burst")
	}
	if cell.Interactions.Mean <= 0 {
		t.Fatalf("recovery time distribution empty: %+v", cell.Interactions)
	}
	// A protocol without the injectable capability cannot host the mode.
	if _, err := NewEnsemble(Grid{
		Protocols:  []string{ProtocolNameRank},
		Points:     []Point{{N: 16}},
		TransientK: 2,
	}); err == nil {
		t.Fatal("TransientK accepted for a non-injectable protocol")
	}
}
