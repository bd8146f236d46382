// workload_test.go covers the workload layer's public surface: schedule
// compilation and validation through Run, churn with a live population size,
// per-event recovery reporting, the versioned trace format with its
// bit-exact cross-backend replay guarantee (the acceptance property of the
// robustness PR), and the Ensemble workload mode with worker-count-identical
// JSON.

package sspp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
)

// censusOf snapshots a system's state multiset: by state key on the agent
// backend (protocols with the state-key capability), by counts on the
// species backend.
func censusOf(t *testing.T, s *System) map[uint64]int64 {
	t.Helper()
	if keyer, ok := s.proto.(sim.StateKeyer); ok {
		m := make(map[uint64]int64)
		for i := 0; i < s.N(); i++ {
			m[keyer.StateKey(i)]++
		}
		return m
	}
	if cv, ok := s.proto.(sim.CountView); ok {
		m := make(map[uint64]int64)
		cv.Each(func(k uint64, c int64) bool {
			m[k] = c
			return true
		})
		return m
	}
	t.Fatalf("protocol %q exposes no census capability", s.ProtocolName())
	return nil
}

// equalCensus compares two state multisets.
func equalCensus(a, b map[uint64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

// churnFaultWorkload is the mixed churn+fault schedule of the cross-backend
// replay property: a transient burst, periodic join/leave churn, and a
// population step, all within the first maxT interactions.
func churnFaultWorkload() *Workload {
	return NewWorkload(
		TransientBurst(1000, 32, 11),
		ChurnBursts(500, 4001, 1000, 2, 3, "", 12),
		PopulationStep(2500, 5, AdversaryRandomGarbage, 13),
	)
}

// TestWorkloadTraceCrossBackendReplay is the acceptance property of the
// workload layer: a recorded churn+fault workload replays bit-exactly —
// identical final state multiset — on a fresh agent system and on a fresh
// species system, for ciw and loosele at n = 10⁴.
func TestWorkloadTraceCrossBackendReplay(t *testing.T) {
	const n = 10_000
	const maxT = 6_000
	for _, proto := range []string{ProtocolCIW, ProtocolLooseLE} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Protocol: proto, N: n, Seed: 5}
			rec, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tr *WorkloadTrace
			res := rec.Run(SchedulerSeed(9), MaxInteractions(maxT),
				WithWorkload(churnFaultWorkload()), RecordTrace(&tr))
			if res.Err != nil {
				t.Fatalf("recording run: %v", res.Err)
			}
			if tr == nil {
				t.Fatal("no trace recorded")
			}
			if tr.Version() != 1 || tr.Steps() != res.Interactions {
				t.Fatalf("trace version %d, steps %d (run executed %d)",
					tr.Version(), tr.Steps(), res.Interactions)
			}
			fired := 0
			for _, eo := range res.EventOutcomes() {
				if eo.Fired {
					fired++
				}
			}
			if fired == 0 || tr.Events() != fired {
				t.Fatalf("trace carries %d events, run fired %d", tr.Events(), fired)
			}
			want := censusOf(t, rec)
			if rec.N() == n {
				t.Fatal("churn schedule left the population size unchanged — the property would be vacuous")
			}

			// Round-trip the trace through its wire format first: the replayed
			// bytes must decode to the identical schedule.
			var buf bytes.Buffer
			if err := tr.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeWorkloadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}

			agentReplay, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := agentReplay.ReplayTrace(decoded); err != nil {
				t.Fatalf("agent replay: %v", err)
			}
			if got := censusOf(t, agentReplay); !equalCensus(want, got) {
				t.Fatalf("agent replay diverged: %d states vs %d", len(got), len(want))
			}

			speciesCfg := cfg
			speciesCfg.Backend = BackendSpecies
			speciesReplay, err := New(speciesCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := speciesReplay.ReplayTrace(decoded); err != nil {
				t.Fatalf("species replay: %v", err)
			}
			if speciesReplay.N() != rec.N() {
				t.Fatalf("species replay population %d, recording ended at %d", speciesReplay.N(), rec.N())
			}
			if got := censusOf(t, speciesReplay); !equalCensus(want, got) {
				t.Fatalf("species replay diverged: %d states vs %d", len(got), len(want))
			}
		})
	}
}

// TestReplayTraceValidation: replays on the wrong protocol, population or
// backend fail fast instead of corrupting state.
func TestReplayTraceValidation(t *testing.T) {
	rec, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tr *WorkloadTrace
	if res := rec.Run(SchedulerSeed(3), MaxInteractions(200), RecordTrace(&tr)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if tr == nil {
		t.Fatal("no trace")
	}
	wrongProto, _ := New(Config{Protocol: ProtocolLooseLE, N: 64, Seed: 2})
	if err := wrongProto.ReplayTrace(tr); err == nil {
		t.Error("replay accepted on the wrong protocol")
	}
	wrongN, _ := New(Config{Protocol: ProtocolCIW, N: 32, Seed: 2})
	if err := wrongN.ReplayTrace(tr); err == nil {
		t.Error("replay accepted at the wrong population size")
	}
	if err := rec.ReplayTrace(nil); err == nil {
		t.Error("nil trace accepted")
	}
}

// TestRecordTraceRequiresAgentCompleteTopology: recording rejects the
// species backend and non-complete topologies up front, with zero
// interactions executed.
func TestRecordTraceRequiresAgentCompleteTopology(t *testing.T) {
	var tr *WorkloadTrace
	species, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 2, Backend: BackendSpecies})
	if err != nil {
		t.Fatal(err)
	}
	if res := species.Run(SchedulerSeed(3), RecordTrace(&tr)); res.Err == nil || res.Interactions != 0 {
		t.Errorf("species recording: err=%v after %d interactions", res.Err, res.Interactions)
	}
	ring, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 2, Topology: Ring()})
	if err != nil {
		t.Fatal(err)
	}
	if res := ring.Run(SchedulerSeed(3), RecordTrace(&tr)); res.Err == nil || res.Interactions != 0 {
		t.Errorf("ring recording: err=%v after %d interactions", res.Err, res.Interactions)
	}
}

// TestWorkloadChurnRequiresCompleteTopology: churn schedules on non-complete
// topologies are rejected capability-table style, before any interaction.
func TestWorkloadChurnRequiresCompleteTopology(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 2, Topology: Ring()})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(SchedulerSeed(3), WithWorkload(NewWorkload(LeaveAt(10, 4), JoinAt(10, "", 5))))
	if res.Err == nil || res.Interactions != 0 {
		t.Fatalf("churn on a ring: err=%v after %d interactions", res.Err, res.Interactions)
	}
	if !strings.Contains(res.Err.Error(), "complete topology") {
		t.Fatalf("error does not name the topology restriction: %v", res.Err)
	}
}

// TestWorkloadChurnCapabilityValidation: churn schedules on protocols
// without the churnable capability fail up front; replacement-only
// protocols (electleader) reject unbalanced churn but absorb replacement
// pairs.
func TestWorkloadChurnCapabilityValidation(t *testing.T) {
	noChurn, err := New(Config{Protocol: ProtocolNameRank, N: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := noChurn.Run(SchedulerSeed(3), WithWorkload(NewWorkload(LeaveAt(10, 4), JoinAt(10, "", 5))))
	if res.Err == nil || res.Interactions != 0 {
		t.Fatalf("churn on namerank: err=%v after %d interactions", res.Err, res.Interactions)
	}

	elect, err := New(Config{N: 16, R: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res = elect.Run(SchedulerSeed(3), WithWorkload(NewWorkload(LeaveAt(10, 4))))
	if res.Err == nil || res.Interactions != 0 {
		t.Fatalf("unbalanced churn on electleader: err=%v after %d interactions", res.Err, res.Interactions)
	}
	if !strings.Contains(res.Err.Error(), "replacement churn") {
		t.Fatalf("error does not explain the replacement-only restriction: %v", res.Err)
	}
	res = elect.Run(SchedulerSeed(3), WithWorkload(NewWorkload(ReplacementChurn(0, 2000, 4, "", 7))),
		MaxInteractions(200_000))
	if res.Err != nil {
		t.Fatalf("replacement churn on electleader: %v", res.Err)
	}
	if elect.N() != 16 {
		t.Fatalf("replacement churn changed n to %d", elect.N())
	}
}

// TestFailedJoinLeavesNoPanic: a join whose class the protocol cannot
// realize fails after its paired leave has fired, leaving a two-agent
// population with one agent. Run reports the failed event; stepping the
// one-agent population is an error from Run and StepSched, and Step leaves
// it alone, instead of panicking.
func TestFailedJoinLeavesNoPanic(t *testing.T) {
	sys, err := New(Config{Protocol: ProtocolLooseLE, N: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(SchedulerSeed(2), MaxInteractions(100),
		WithWorkload(NewWorkload(ChurnBursts(50, 0, 500, 1, 1, AdversaryCleanRankers, 3))))
	if res.Err == nil || sys.N() != 1 {
		t.Fatalf("unrealizable join: err=%v, n=%d", res.Err, sys.N())
	}
	if err := sys.StepSched(NewUniform(4), 10); err == nil {
		t.Error("StepSched stepped a one-agent population")
	}
	before := sys.Interactions()
	if sys.Step(4, 10); sys.Interactions() != before {
		t.Error("Step stepped a one-agent population")
	}
	if res := sys.Run(SchedulerSeed(4)); res.Err == nil || res.Interactions != 0 {
		t.Errorf("Run stepped a one-agent population: %+v", res)
	}
}

// TestWorkloadDynamicPopulation: a drifting-n schedule on ciw keeps the
// engine's view of the population consistent — N() tracks the events, the
// run recovers, and ParallelTime accrues per segment at the live population
// size (each interaction contributes 1/n_live, not 1/n₀).
func TestWorkloadDynamicPopulation(t *testing.T) {
	const n0 = 32
	sys, err := New(Config{Protocol: ProtocolCIW, N: n0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(
		PopulationStep(100, 8, "", 6),   // 32 -> 40
		PopulationStep(300, -16, "", 7), // 40 -> 24
	)
	res := sys.Run(SchedulerSeed(5), WithWorkload(wl))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if sys.N() != 24 {
		t.Fatalf("N = %d after the schedule, want 24", sys.N())
	}
	if !res.Stabilized {
		t.Fatal("ciw did not re-stabilize after the population steps")
	}
	// Per-segment parallel time: [0,100) at n=32, [100,300) at 40, then the
	// remainder at 24 — not StabilizedAt/n₀.
	want := 100.0/32 + 200.0/40 + float64(res.StabilizedAt-300)/24
	if res.ParallelTime != want {
		t.Fatalf("ParallelTime %.6f not accrued at the live population sizes (want %.6f)", res.ParallelTime, want)
	}
	if anchored := float64(res.StabilizedAt) / float64(n0); res.ParallelTime == anchored {
		t.Fatalf("ParallelTime %.6f is still anchored at n0=%d", res.ParallelTime, n0)
	}
	outs := res.EventOutcomes()
	if len(outs) != 24 {
		t.Fatalf("%d event outcomes, want 24", len(outs))
	}
	for i, eo := range outs {
		if !eo.Fired {
			t.Fatalf("event %d (%s at %d) did not fire", i, eo.Kind, eo.At)
		}
		if !eo.Recovered || eo.RecoveredAt < eo.At {
			t.Fatalf("event %d (%s at %d): recovered=%v at %d", i, eo.Kind, eo.At, eo.Recovered, eo.RecoveredAt)
		}
	}
	if outs[0].Kind != "join" || outs[8].Kind != "leave" {
		t.Fatalf("event kinds: first %q (want join), ninth %q (want leave)", outs[0].Kind, outs[8].Kind)
	}
	if outs[7].N != 40 || outs[23].N != 24 {
		t.Fatalf("population after steps: %d then %d, want 40 then 24", outs[7].N, outs[23].N)
	}
}

// TestWorkloadAwaitsAllEvents: unlike bare InjectTransientAt, a workload run
// does not stop at the first stabilization — every scheduled event fires
// (the per-event recovery semantics), and the legacy InjectTransientAt
// early-stop contract stays untouched.
func TestWorkloadAwaitsAllEvents(t *testing.T) {
	mk := func() *System {
		sys, err := New(Config{N: 16, R: 4, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if res := sys.Run(SchedulerSeed(22)); !res.Stabilized {
			t.Fatal("setup failed")
		}
		return sys
	}
	// Legacy contract: a burst scheduled past the (immediate) stop does not
	// fire.
	legacy := mk().Run(SchedulerSeed(23), InjectTransientAt(1_000_000, 3, 9))
	if legacy.Err != nil || !legacy.Stabilized {
		t.Fatalf("legacy run: %+v", legacy)
	}
	for _, eo := range legacy.EventOutcomes() {
		if eo.Fired {
			t.Fatal("InjectTransientAt fired past the stop")
		}
	}
	// Workload contract: the same burst keeps the run alive until it fires
	// and recovery is observed.
	wl := mk().Run(SchedulerSeed(23), WithWorkload(NewWorkload(TransientBurst(50_000, 3, 9))))
	if wl.Err != nil || !wl.Stabilized {
		t.Fatalf("workload run: %+v", wl)
	}
	outs := wl.EventOutcomes()
	if len(outs) != 1 || !outs[0].Fired || !outs[0].Recovered {
		t.Fatalf("workload outcomes: %+v", outs)
	}
	if wl.Interactions < 50_000 {
		t.Fatalf("run stopped at %d, before the scheduled burst", wl.Interactions)
	}
}

// TestResultStaysComparable: schedule-free results keep the historical
// bit-identity contract (Result compared with ==).
func TestResultStaysComparable(t *testing.T) {
	run := func() Result {
		sys, err := New(Config{N: 16, R: 4, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(SchedulerSeed(32))
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("identical runs differ: %+v vs %+v", r1, r2)
	}
	if r1.Events != nil || r1.EventOutcomes() != nil {
		t.Fatal("schedule-free run carries event outcomes")
	}
}

// TestEnsembleWorkloadMode: the Grid.Workload recovery mode aggregates
// per-event recovery into Cell.Events and its JSON is byte-identical for
// every worker count.
func TestEnsembleWorkloadMode(t *testing.T) {
	grid := Grid{
		Protocols: []string{ProtocolElectLeader, ProtocolCIW},
		Points:    []Point{{N: 16, R: 4}},
		Seeds:     3,
		BaseSeed:  11,
		Workload: NewWorkload(
			ReplacementChurn(0, 400, 2, "", 41),
			TransientBurst(200, 3, 42),
		),
	}
	ens, err := NewEnsemble(grid)
	if err != nil {
		t.Fatal(err)
	}
	res := ens.Run()
	for _, cell := range res.Cells {
		if cell.Recovered != cell.Seeds {
			t.Fatalf("cell %s: %d/%d recovered", cell.Protocol, cell.Recovered, cell.Seeds)
		}
		if len(cell.Events) == 0 {
			t.Fatalf("cell %s carries no event aggregation", cell.Protocol)
		}
		for i, ec := range cell.Events {
			if ec.Fired != cell.Seeds {
				t.Fatalf("cell %s event %d: fired %d/%d", cell.Protocol, i, ec.Fired, cell.Seeds)
			}
			if ec.Recovered != cell.Seeds || ec.Recovery.N != cell.Seeds {
				t.Fatalf("cell %s event %d: recovered %d, recovery samples %d",
					cell.Protocol, i, ec.Recovered, ec.Recovery.N)
			}
		}
		// The same schedule must appear in every cell of the point: the
		// phases carry their own seeds.
		if fmt.Sprint(cell.Events[0].At) != fmt.Sprint(res.Cells[0].Events[0].At) {
			t.Fatalf("schedules diverge across cells")
		}
	}

	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	seqEns, _ := NewEnsemble(grid, Workers(1))
	parEns, _ := NewEnsemble(grid, Workers(parallel))
	seq, err1 := seqEns.Run().JSON()
	par, err2 := parEns.Run().JSON()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(seq, par) {
		t.Fatal("workload ensemble JSON differs across worker counts")
	}
	base, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, base) {
		t.Fatal("workload ensemble JSON differs from the default-worker run")
	}
}

// TestEnsembleWorkloadValidation: the workload mode is exclusive with
// TransientK, accepts churn-only species grids but not species fault
// phases, and checks the capability footprint per protocol up front.
func TestEnsembleWorkloadValidation(t *testing.T) {
	churn := NewWorkload(ReplacementChurn(0, 400, 2, "", 41))
	faults := NewWorkload(TransientBurst(100, 2, 42))

	g := Grid{Points: []Point{{N: 16, R: 4}}, Seeds: 2, Workload: churn, TransientK: 2}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("Workload + TransientK accepted")
	}

	g = Grid{Protocols: []string{ProtocolCIW}, Backend: BackendSpecies,
		Points: []Point{{N: 64}}, Seeds: 2, Workload: churn}
	if _, err := NewEnsemble(g); err != nil {
		t.Errorf("species churn workload grid rejected: %v", err)
	}

	g.Workload = NewWorkload(ReplacementChurn(0, 400, 2, "", 41), TransientBurst(100, 2, 42))
	if _, err := NewEnsemble(g); err == nil || !strings.Contains(err.Error(), "no agent identities") {
		t.Errorf("species grid with a fault phase: %v, want the species faults rejection", err)
	}

	g = Grid{Protocols: []string{ProtocolNameRank}, Points: []Point{{N: 16}}, Seeds: 2, Workload: churn}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("churn workload accepted for a non-churnable protocol")
	}

	g = Grid{Protocols: []string{ProtocolNameRank}, Points: []Point{{N: 16}}, Seeds: 2, Workload: faults}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("fault workload accepted for a non-injectable protocol")
	}

	g = Grid{Protocols: []string{ProtocolCIW}, Topologies: []Topology{Ring()},
		Points: []Point{{N: 16}}, Seeds: 2, Workload: churn}
	if _, err := NewEnsemble(g); err == nil {
		t.Error("churn workload accepted on a non-complete topology")
	}

	g = Grid{Protocols: []string{ProtocolCIW}, Points: []Point{{N: 16}}, Seeds: 2, Workload: faults}
	if _, err := NewEnsemble(g); err != nil {
		t.Errorf("fault workload rejected for ciw: %v", err)
	}
}

// TestSpeciesEnsembleChurnWorkload: a species grid runs a churn-only
// workload the way a species System does, and every trial recovers after
// every event, for each protocol whose species form declares churn hooks.
func TestSpeciesEnsembleChurnWorkload(t *testing.T) {
	grid := Grid{
		Protocols:       []string{ProtocolCIW, ProtocolLooseLE, ProtocolElectLeader},
		Backend:         BackendSpecies,
		Points:          []Point{{N: 32, R: 8}},
		Seeds:           2,
		BaseSeed:        3,
		MaxInteractions: 2_000_000,
		Workload:        NewWorkload(ReplacementChurn(0, 20_000, 0.5, "", 3)),
	}
	ens, err := NewEnsemble(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range ens.Run().Cells {
		if cell.Recovered != cell.Seeds {
			t.Fatalf("cell %s: %d/%d recovered", cell.Protocol, cell.Recovered, cell.Seeds)
		}
		if len(cell.Events) == 0 {
			t.Fatalf("cell %s carries no event aggregation", cell.Protocol)
		}
		for i, ec := range cell.Events {
			if ec.Fired != cell.Seeds || ec.Recovered != cell.Seeds {
				t.Fatalf("cell %s event %d: fired %d, recovered %d of %d", cell.Protocol, i, ec.Fired, ec.Recovered, cell.Seeds)
			}
		}
	}
}

// TestElectLeaderMassReplacement: a burst that replaces all but one agent
// at one instant is a valid replacement schedule; every leave finds a live
// slot however few remain, and the population ends whole.
func TestElectLeaderMassReplacement(t *testing.T) {
	const n = 500
	sys, err := New(Config{Protocol: ProtocolElectLeader, N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(SchedulerSeed(2), MaxInteractions(1000),
		WithWorkload(NewWorkload(ChurnBursts(10, 11, 1, n-1, n-1, "", 5))))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	outs := res.EventOutcomes()
	if len(outs) != 2*(n-1) {
		t.Fatalf("%d event outcomes, want %d", len(outs), 2*(n-1))
	}
	for i, eo := range outs {
		if !eo.Fired {
			t.Fatalf("event %d (%s at %d) did not fire", i, eo.Kind, eo.At)
		}
	}
	if sys.N() != n {
		t.Fatalf("N = %d after the burst, want %d", sys.N(), n)
	}
	// A replayed trace is outside input and can ask for one leave too many:
	// the last live slot is refused instead of redrawn forever.
	e := sys.proto.(*electProtocol)
	src := rng.New(6)
	for i := 0; i < n-1; i++ {
		if err := e.Leave(src); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
	}
	if err := e.Leave(src); err == nil {
		t.Fatal("Leave vacated the last live slot")
	}
}

// TestWorkloadReinjectionAndJoinLeaveChurn drives the remaining public
// constructors through a real run: a mid-run adversary re-injection plus an
// unpaired Poisson join/leave mix on a dynamically sized population, with
// the recorded trace carrying the run's identity.
func TestWorkloadReinjectionAndJoinLeaveChurn(t *testing.T) {
	const n0 = 32
	sys, err := New(Config{Protocol: ProtocolCIW, N: n0, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(
		Reinjection(200, AdversaryTwoLeaders, 32),
		JoinLeaveChurn(400, 2000, 2, 0.5, "", 33),
	)
	var tr *WorkloadTrace
	res := sys.Run(SchedulerSeed(34), WithWorkload(wl), RecordTrace(&tr))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Stabilized {
		t.Fatal("ciw did not re-stabilize after the reinjection + churn mix")
	}
	outs := res.EventOutcomes()
	if len(outs) == 0 || outs[0].Kind != "inject" || outs[0].Class != string(AdversaryTwoLeaders) {
		t.Fatalf("first outcome %+v, want the two-leaders reinjection", outs[0])
	}
	joins, leaves := 0, 0
	for _, eo := range outs[1:] {
		if !eo.Fired {
			t.Fatalf("event %s at %d did not fire", eo.Kind, eo.At)
		}
		switch eo.Kind {
		case "join":
			joins++
		case "leave":
			leaves++
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("join/leave mix drew %d joins, %d leaves — want both kinds", joins, leaves)
	}
	if want := n0 + joins - leaves; sys.N() != want {
		t.Fatalf("N = %d after %d joins and %d leaves from %d, want %d", sys.N(), joins, leaves, n0, want)
	}
	if tr.Protocol() != ProtocolCIW || tr.N() != n0 {
		t.Fatalf("trace identity (%q, %d), want (%q, %d)", tr.Protocol(), tr.N(), ProtocolCIW, n0)
	}
	fresh, err := New(Config{Protocol: ProtocolCIW, N: n0, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReplayTrace(tr); err != nil {
		t.Fatalf("replaying the recorded mix: %v", err)
	}
}

// TestReplayTraceAdvancesClock: replaying a trace advances the system's
// clock over the replayed interactions and re-rates it at every replayed
// churn event, so on both backends a discrete replay ends at the
// recording's parallel time exactly.
func TestReplayTraceAdvancesClock(t *testing.T) {
	never := ConditionFunc("never", func(*System) bool { return false })
	for _, tc := range []struct {
		name string
		wl   *Workload
	}{
		{"churn-free", nil},
		{"population-steps", NewWorkload(PopulationStep(1000, 8, "", 6), PopulationStep(3000, -16, "", 7))},
	} {
		cfg := Config{Protocol: ProtocolCIW, N: 64, Seed: 2}
		rec, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tr *WorkloadTrace
		res := rec.Run(Until(never), SchedulerSeed(3), MaxInteractions(6400), WithWorkload(tc.wl), RecordTrace(&tr))
		if res.Err != nil || tr == nil || res.Interactions != 6400 {
			t.Fatalf("%s: recording run %+v", tc.name, res)
		}
		if tc.wl == nil && rec.ParallelTime() != 100 {
			t.Fatalf("%s: recording reads parallel time %v, want 100", tc.name, rec.ParallelTime())
		}
		for _, backend := range []string{BackendAgent, BackendSpecies} {
			cfg.Backend = backend
			replay, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.ReplayTrace(tr); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, backend, err)
			}
			if got, want := replay.ParallelTime(), rec.ParallelTime(); got != want {
				t.Fatalf("%s/%s: replay reads parallel time %v, recording %v", tc.name, backend, got, want)
			}
		}
	}
}

// TestContinuousReplayTraceAdvancesClock: under the continuous clock a
// replay draws fresh holding times for the replayed interactions on both
// backends — the agent backend's TimeKeeper and the species system's native
// clock alike — so 6400 interactions at n = 64 read about the recording's
// 200 units of parallel time, not zero.
func TestContinuousReplayTraceAdvancesClock(t *testing.T) {
	never := ConditionFunc("never", func(*System) bool { return false })
	cfg := Config{Protocol: ProtocolCIW, N: 64, Seed: 2, Clock: ClockContinuous}
	rec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr *WorkloadTrace
	if res := rec.Run(Until(never), SchedulerSeed(3), MaxInteractions(6400), RecordTrace(&tr)); res.Err != nil || tr == nil {
		t.Fatalf("recording run %+v", res)
	}
	for _, backend := range []string{BackendAgent, BackendSpecies} {
		cfg.Backend = backend
		replay, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.ReplayTrace(tr); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if got := replay.ParallelTime(); got < 150 || got > 250 {
			t.Fatalf("%s: replay reads parallel time %v, recording %v", backend, got, rec.ParallelTime())
		}
	}
}

// TestReplayTraceRequiresCompleteTopology: traces record complete-topology
// runs, whose pairs are not edges of any other interaction graph, so a
// replay onto a non-complete topology is refused.
func TestReplayTraceRequiresCompleteTopology(t *testing.T) {
	rec, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tr *WorkloadTrace
	if res := rec.Run(SchedulerSeed(3), MaxInteractions(400), RecordTrace(&tr)); res.Err != nil || tr == nil {
		t.Fatalf("recording run: %+v", res)
	}
	ring, err := New(Config{Protocol: ProtocolCIW, N: 64, Seed: 2, Topology: Ring()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.ReplayTrace(tr); err == nil {
		t.Fatal("complete-topology trace replayed onto a ring")
	}
	if ring.Interactions() != 0 {
		t.Fatalf("refused replay still dealt %d interactions", ring.Interactions())
	}
}
