// backend_test.go covers the public backend surface: Config.Backend
// selection and validation, the uniform-scheduler contract of the species
// backend, the user-facing NewSpecies entry point, and Grid.Backend through
// the parallel Ensemble (matched-seed exact-vs-species faceoffs with
// worker-count-independent JSON).

package sspp

import (
	"bytes"
	"runtime"
	"testing"

	"sspp/internal/sim"
)

// TestBackendSelection: "" and "agent" stay agent-level, "species" requires
// compactability, "auto" switches on the population threshold, and unknown
// names are rejected.
func TestBackendSelection(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		wantBackend string
		wantErr     bool
	}{
		{"default agent", Config{Protocol: ProtocolCIW, N: 16, Seed: 1}, BackendAgent, false},
		{"explicit agent", Config{Protocol: ProtocolCIW, N: 16, Seed: 1, Backend: BackendAgent}, BackendAgent, false},
		{"explicit species", Config{Protocol: ProtocolCIW, N: 16, Seed: 1, Backend: BackendSpecies}, BackendSpecies, false},
		{"species on electleader", Config{Protocol: ProtocolElectLeader, N: 16, R: 4, Seed: 1, Backend: BackendSpecies}, BackendSpecies, false},
		{"species rejects synthetic coins", Config{Protocol: ProtocolElectLeader, N: 16, R: 4, Seed: 1, Backend: BackendSpecies, SyntheticCoins: true}, "", true},
		{"species on fastle", Config{Protocol: ProtocolFastLE, N: 16, Seed: 1, Backend: BackendSpecies}, "", true},
		{"auto below threshold", Config{Protocol: ProtocolCIW, N: 1024, Seed: 1, Backend: BackendAuto}, BackendAgent, false},
		{"auto above threshold", Config{Protocol: ProtocolCIW, N: SpeciesAutoThreshold, Seed: 1, Backend: BackendAuto}, BackendSpecies, false},
		{"auto electleader below threshold stays agent", Config{Protocol: ProtocolElectLeader, N: 256, R: 4, Seed: 1, Backend: BackendAuto}, BackendAgent, false},
		{"auto electleader above threshold goes species", Config{Protocol: ProtocolElectLeader, N: SpeciesAutoThreshold, R: 64, Seed: 1, Backend: BackendAuto}, BackendSpecies, false},
		{"unknown backend", Config{Protocol: ProtocolCIW, N: 16, Seed: 1, Backend: "quantum"}, "", true},
	}
	for _, tc := range cases {
		sys, err := New(tc.cfg)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := sys.Backend(); got != tc.wantBackend {
			t.Errorf("%s: backend %q, want %q", tc.name, got, tc.wantBackend)
		}
	}
}

// TestSpeciesUniformSchedulerContract: the species backend accepts the
// uniform schedulers (SchedulerSeed, NewUniform — including through
// Ensemble's PRNG streams) and fails fast on anything with agent
// identities baked in.
func TestSpeciesUniformSchedulerContract(t *testing.T) {
	newSys := func() *System {
		sys, err := New(Config{Protocol: ProtocolLooseLE, N: 64, Seed: 3, Backend: BackendSpecies})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	if res := newSys().Run(SchedulerSeed(9), MaxInteractions(10_000)); res.Err != nil {
		t.Fatalf("SchedulerSeed: %v", res.Err)
	}
	if res := newSys().Run(WithScheduler(NewUniform(9)), MaxInteractions(10_000)); res.Err != nil {
		t.Fatalf("NewUniform: %v", res.Err)
	}
	for name, sched := range map[string]Scheduler{
		"batch": NewBatch(9, 0),
		"zipf":  NewZipf(9, 64, 1.0),
	} {
		res := newSys().Run(WithScheduler(sched), MaxInteractions(10_000))
		if res.Err == nil {
			t.Errorf("%s scheduler accepted by the species backend", name)
		}
		if res.Interactions != 0 {
			t.Errorf("%s: executed %d interactions before failing", name, res.Interactions)
		}
	}
}

// TestSpeciesPerAgentSurfacesDegrade: injection and per-agent outputs
// report their absence instead of panicking.
func TestSpeciesPerAgentSurfacesDegrade(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 3, Backend: BackendSpecies})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(AdversaryTwoLeaders, 7); err == nil {
		t.Fatal("Inject accepted on the species backend")
	}
	if got, err := sys.InjectTransient(3, 7); err == nil || got != nil {
		t.Fatalf("InjectTransient = %v, %v; want an error (no injectable capability)", got, err)
	}
	if got := sys.Ranks(); got != nil {
		t.Fatalf("Ranks = %v on a count-based backend", got)
	}
	if _, ok := sys.Leader(); ok {
		t.Fatal("Leader index exists without agent identities")
	}
	res := sys.Run(SchedulerSeed(4), InjectTransientAt(100, 2, 5))
	if res.Err == nil {
		t.Fatal("scheduled transient fault accepted on the species backend")
	}
	// The generic surfaces stay live.
	if sys.Leaders() != 64 {
		t.Fatalf("Leaders = %d at the all-rank-1 start", sys.Leaders())
	}
	if sys.CorrectRanking() {
		t.Fatal("all-rank-1 start reported as a permutation")
	}
}

// TestElectLeaderSpeciesEndToEnd: the paper's protocol runs on the species
// backend through the public engine, stabilizes into its safe set, and
// degrades its per-agent surfaces (identities do not exist under counts).
func TestElectLeaderSpeciesEndToEnd(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolElectLeader, N: 128, R: 16, Seed: 5, Backend: BackendSpecies})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Backend() != BackendSpecies {
		t.Fatalf("backend %q", sys.Backend())
	}
	res := sys.Run(Until(SafeSet), SchedulerSeed(9))
	if res.Err != nil || !res.Stabilized {
		t.Fatalf("species electleader did not stabilize: %+v", res)
	}
	if res.Condition != "safe-set" {
		t.Fatalf("condition %q: the compact model's safe set was not dispatched", res.Condition)
	}
	if sys.Leaders() != 1 || !sys.Correct() || !sys.CorrectRanking() {
		t.Fatalf("post-stabilization outputs: leaders=%d correct=%v ranking=%v",
			sys.Leaders(), sys.Correct(), sys.CorrectRanking())
	}
	if got := sys.Ranks(); got != nil {
		t.Fatalf("Ranks = %v on a count-based backend", got)
	}
	if _, ok := sys.Leader(); ok {
		t.Fatal("Leader index exists without agent identities")
	}
	if err := sys.Inject(AdversaryTwoLeaders, 7); err == nil {
		t.Fatal("Inject accepted on the species backend")
	}
}

// TestSpeciesCleanStartFastPath pins the clean-start constructor wiring
// (registry compactClean → System.New): an electleader species build through
// the fast path must be bit-for-bit equivalent to the instance-backed
// compactProto path at matched seeds — same stabilization time, same events,
// same snapshot — because the fast path is an optimization, not a semantics
// change.
func TestSpeciesCleanStartFastPath(t *testing.T) {
	cfg := Config{Protocol: ProtocolElectLeader, N: 256, R: 32, Seed: 11, Backend: BackendSpecies}
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-fast-path build, assembled by hand: construct the agent
	// instance and compact it away, exactly as New did before compactClean.
	spec, err := specFor(cfg.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	ev := sim.NewEvents()
	p, err := spec.build(cfg, ev)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = compactProto(p, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	slow := &System{plan: plan{cfg: fast.cfg, spec: spec}, proto: p, events: ev}

	resFast := fast.Run(Until(SafeSet), SchedulerSeed(3))
	resSlow := slow.Run(Until(SafeSet), SchedulerSeed(3))
	if resFast.Err != nil || resSlow.Err != nil {
		t.Fatalf("run errors: fast=%v slow=%v", resFast.Err, resSlow.Err)
	}
	if resFast != resSlow {
		t.Fatalf("results diverged:\nfast: %+v\nslow: %+v", resFast, resSlow)
	}
	if sf, ss := fast.Snapshot(), slow.Snapshot(); sf != ss {
		t.Fatalf("snapshots diverged:\nfast: %+v\nslow: %+v", sf, ss)
	}
	if fast.Events() != slow.Events() {
		t.Fatalf("event counts diverged:\nfast: %s\nslow: %s", fast.Events(), slow.Events())
	}
}

// TestElectLeaderSpeciesMillionAgents: the scale target of the compaction —
// a population of 10⁶ agents builds and steps on the species backend (the
// agent instance serves only as the configuration template). Bounded steps:
// full stabilization at this scale is the nightly soak's job. The modest r
// keeps the per-state payload (the O(r) ranking channel) small; throughput
// as a function of r is experiment S3's subject.
func TestElectLeaderSpeciesMillionAgents(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke test")
	}
	sys, err := New(Config{Protocol: ProtocolElectLeader, N: 1_000_000, R: 64, Seed: 1, Backend: BackendSpecies})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(SchedulerSeed(2), MaxInteractions(200_000))
	if res.Err != nil {
		t.Fatalf("species electleader at n=10⁶: %v", res.Err)
	}
	if res.Interactions != 200_000 {
		t.Fatalf("ran %d interactions, want the full 200000 budget", res.Interactions)
	}
}

// TestNewSpeciesPublicModel runs a user-supplied species model — the
// one-way epidemic — through the public engine end to end.
func TestNewSpeciesPublicModel(t *testing.T) {
	const n = 512
	sys, err := NewSpecies(SpeciesModel{
		States: 2,
		Init: func() ([]uint64, []int64) {
			return []uint64{0, 1}, []int64{n - 1, 1}
		},
		React: func(a, b uint64, _ *Rand) (uint64, uint64) {
			if a == 1 {
				return 1, 1 // informed initiator infects the responder
			}
			return a, b
		},
		Leader:  func(key uint64) bool { return key == 1 },
		Correct: func(v StateCounts) bool { return v.Count(1) == n },
		SafeSet: func(v StateCounts) bool { return v.Count(1) == n }, // absorbing
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Backend() != BackendSpecies || sys.N() != n {
		t.Fatalf("backend %q, n %d", sys.Backend(), sys.N())
	}
	res := sys.Run(Until(SafeSet), SchedulerSeed(11))
	if !res.Stabilized {
		t.Fatalf("epidemic did not complete: %+v", res)
	}
	if res.Condition != "safe-set" {
		t.Fatalf("condition %q: the model's safe set was not dispatched", res.Condition)
	}
	if sys.Leaders() != n {
		t.Fatalf("%d informed agents after completion", sys.Leaders())
	}
	// NewSpecies validation.
	if _, err := NewSpecies(SpeciesModel{}); err == nil {
		t.Fatal("empty model accepted")
	}
}

// TestEnsembleBackendFaceoff: two grids differing only in Backend run at
// matched seeds, species cells must populate like agent cells, and the
// species export is byte-identical across worker counts.
func TestEnsembleBackendFaceoff(t *testing.T) {
	grid := Grid{
		Protocols: []string{ProtocolCIW, ProtocolLooseLE},
		Points:    []Point{{N: 64}, {N: 128}},
		Seeds:     4,
		BaseSeed:  7,
	}
	agentGrid := grid
	speciesGrid := grid
	speciesGrid.Backend = BackendSpecies

	agentEns, err := NewEnsemble(agentGrid)
	if err != nil {
		t.Fatal(err)
	}
	speciesEns, err := NewEnsemble(speciesGrid)
	if err != nil {
		t.Fatal(err)
	}
	agentRes := agentEns.Run()
	speciesRes := speciesEns.Run()
	if speciesRes.Backend != BackendSpecies || agentRes.Backend != "" {
		t.Fatalf("backend stamps: agent %q, species %q", agentRes.Backend, speciesRes.Backend)
	}
	for i, sc := range speciesRes.Cells {
		ac := agentRes.Cells[i]
		if sc.Recovered != sc.Seeds {
			t.Fatalf("species cell %s n=%d recovered %d/%d", sc.Protocol, sc.Point.N, sc.Recovered, sc.Seeds)
		}
		if ac.Recovered != ac.Seeds {
			t.Fatalf("agent cell %s n=%d recovered %d/%d", ac.Protocol, ac.Point.N, ac.Recovered, ac.Seeds)
		}
		// Matched seeds, same chain: the distributions live on the same
		// scale. A loose factor bound catches gross mis-modelling without
		// flaking (the tight gate is the KS harness in internal/species).
		if sc.Interactions.Mean > 6*ac.Interactions.Mean || ac.Interactions.Mean > 6*sc.Interactions.Mean {
			t.Fatalf("cell %s n=%d means diverge: agent %.0f vs species %.0f",
				sc.Protocol, sc.Point.N, ac.Interactions.Mean, sc.Interactions.Mean)
		}
	}
	if cmp := speciesRes.Compare(); cmp.Backend != BackendSpecies {
		t.Fatal("Compare dropped the backend stamp")
	}

	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	seqEns, _ := NewEnsemble(speciesGrid, Workers(1))
	parEns, _ := NewEnsemble(speciesGrid, Workers(parallel))
	seq, err1 := seqEns.Run().JSON()
	par, err2 := parEns.Run().JSON()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(seq, par) {
		t.Fatal("species ensemble JSON differs across worker counts")
	}
	if !bytes.Equal(seq, mustJSON(t, speciesRes)) {
		t.Fatal("species ensemble JSON differs from the default-worker run")
	}
}

// TestEnsembleBackendValidation: species grids reject non-compactable
// protocols, adversarial starts, transient faults, and unknown backends.
func TestEnsembleBackendValidation(t *testing.T) {
	base := Grid{Points: []Point{{N: 32, R: 8}}, Seeds: 2}

	g := base
	g.Backend = BackendSpecies
	g.Protocols = []string{ProtocolElectLeader}
	if _, err := NewEnsemble(g); err != nil {
		t.Errorf("species grid with electleader rejected: %v", err)
	}

	g = base
	g.Backend = BackendSpecies
	g.Protocols = []string{ProtocolFastLE}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("species grid with a non-compactable protocol accepted")
	}

	g = base
	g.Backend = BackendSpecies
	g.Protocols = []string{ProtocolCIW}
	g.Adversaries = []Adversary{AdversaryTwoLeaders}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("species grid with adversarial starts accepted")
	}

	g = base
	g.Backend = BackendSpecies
	g.Protocols = []string{ProtocolCIW}
	g.TransientK = 2
	if _, err := NewEnsemble(g); err == nil {
		t.Error("species grid with transient faults accepted")
	}

	g = base
	g.Backend = "quantum"
	if _, err := NewEnsemble(g); err == nil {
		t.Error("unknown backend accepted")
	}

	g = base
	g.Backend = BackendAuto
	g.Protocols = []string{ProtocolCIW}
	if _, err := NewEnsemble(g); err != nil {
		t.Errorf("auto backend rejected: %v", err)
	}

	// Auto resolves per point: a grid whose large points would run on the
	// species backend must reject the fault model up front instead of
	// silently skipping it at those points — while the same grid with only
	// small (agent-resolved) points stays valid.
	g = Grid{Protocols: []string{ProtocolCIW}, Backend: BackendAuto, Seeds: 2, TransientK: 2,
		Points: []Point{{N: 32}, {N: SpeciesAutoThreshold}}}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("auto grid with transient faults at a species-resolved point accepted")
	}
	g.Points = []Point{{N: 32}, {N: 64}}
	if _, err := NewEnsemble(g); err != nil {
		t.Errorf("auto grid with agent-resolved points rejected: %v", err)
	}
	g.TransientK = 0
	g.Adversaries = []Adversary{AdversaryTwoLeaders}
	g.Points = []Point{{N: SpeciesAutoThreshold}}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("auto grid with adversarial starts at a species-resolved point accepted")
	}
}

// mustJSON marshals an EnsembleResult or fails the test.
func mustJSON(t *testing.T, r *EnsembleResult) []byte {
	t.Helper()
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
