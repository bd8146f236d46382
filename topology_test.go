// topology_test.go pins the interaction-topology layer's acceptance
// criteria: the complete topology is bit-identical to the historical
// uniform-scheduler engine (same seed, same Recording, same runs),
// topology schedules record as edge indices and replay exactly on rings
// and random regular graphs, and the species backend rejects non-complete
// topologies up front for every registry protocol.

package sspp

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompleteTopologySamplerBitIdentical is the property test of the
// refactor: Topology: Complete() reproduces the pre-topology uniform
// scheduler bit for bit — the same seed deals the same schedule, and a
// Recording of one replays as the other.
func TestCompleteTopologySamplerBitIdentical(t *testing.T) {
	sys, err := New(Config{N: 32, R: 8, Seed: 1, Topology: Complete()})
	if err != nil {
		t.Fatal(err)
	}
	const n, pairs = 32, 10_000
	recSampler := NewRecorder(sys.Sampler(7))
	recUniform := NewRecorder(NewUniform(7))
	for i := 0; i < pairs; i++ {
		sa, sb := recSampler.Pair(n)
		ua, ub := recUniform.Pair(n)
		if sa != ua || sb != ub {
			t.Fatalf("pair %d diverges: sampler (%d,%d) vs uniform (%d,%d)", i, sa, sb, ua, ub)
		}
	}
	// The captured recordings deal identical schedules too.
	ra := recSampler.Recording()
	rb := recUniform.Recording()
	if ra.Len() != pairs || rb.Len() != pairs {
		t.Fatalf("recordings hold %d/%d pairs, want %d", ra.Len(), rb.Len(), pairs)
	}
	pa, pb := ra.Replay(), rb.Replay()
	for i := 0; i < pairs; i++ {
		sa, sb := pa.Pair(n)
		ua, ub := pb.Pair(n)
		if sa != ua || sb != ub {
			t.Fatalf("replayed pair %d diverges", i)
		}
	}
}

// TestCompleteTopologyRunBitIdentical: a run with an explicit Complete()
// topology equals the zero-config run bit for bit — results, events, ranks.
func TestCompleteTopologyRunBitIdentical(t *testing.T) {
	run := func(top Topology) (Result, string, []int) {
		sys, err := New(Config{N: 24, R: 6, Seed: 11, Topology: top})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(AdversaryTwoLeaders, 12); err != nil {
			t.Fatal(err)
		}
		res := sys.Run(SchedulerSeed(13))
		return res, sys.Events(), sys.Ranks()
	}
	r1, e1, k1 := run(Topology{}) // zero value: the historical configuration
	r2, e2, k2 := run(Complete())
	if r1 != r2 || e1 != e2 {
		t.Fatalf("explicit Complete() diverges: %+v/%s vs %+v/%s", r1, e1, r2, e2)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("ranks diverge at agent %d", i)
		}
	}
}

// TestTopologyRecorderReplayRoundTrip: a topology run recorded once (as
// edge indices) and replayed on a fresh identical system reproduces the
// identical trajectory, on the ring and on a random regular graph.
func TestTopologyRecorderReplayRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"ring", Config{Protocol: ProtocolNameRank, N: 16, Seed: 3, Topology: Ring()}},
		{"random-regular", Config{N: 16, R: 4, Seed: 1, Topology: RandomRegular(8)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func() *System {
				sys, err := New(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			rec := NewRecorder(build().Sampler(9))
			first := build()
			res1 := first.Run(WithScheduler(rec))
			if !res1.Stabilized {
				t.Fatal("recorded run did not stabilize")
			}
			recording := rec.Recording()
			if uint64(recording.Len()) != res1.Interactions {
				t.Fatalf("recording holds %d interactions, run executed %d",
					recording.Len(), res1.Interactions)
			}
			second := build()
			res2 := second.Run(WithScheduler(recording.Replay()))
			if res1 != res2 {
				t.Fatalf("replayed result %+v differs from recorded %+v", res2, res1)
			}
			r1, r2 := first.Ranks(), second.Ranks()
			for i := range r1 {
				if r1[i] != r2[i] {
					t.Fatalf("replayed ranks diverge at agent %d", i)
				}
			}
			if first.Events() != second.Events() {
				t.Fatalf("replayed events diverge:\n%s\n%s", first.Events(), second.Events())
			}
		})
	}
}

// TestTopologyRunDeterministic: two identical topology systems run under
// the same scheduler seed produce identical results — the random graph is
// drawn from Config.Seed, not from shared global state.
func TestTopologyRunDeterministic(t *testing.T) {
	run := func() Result {
		sys, err := New(Config{N: 16, R: 4, Seed: 5, Topology: RandomRegular(8)})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(SchedulerSeed(6))
	}
	if r1, r2 := run(), run(); r1 != r2 {
		t.Fatalf("non-deterministic topology run: %+v vs %+v", r1, r2)
	}
}

// TestSpeciesTopologyFailsFast is the capability-table gate, one unit test
// per registry protocol: Backend species (and auto at the species
// threshold) combined with a non-complete topology must fail at
// construction — the species backend samples state pairs and has no agent
// adjacency — and never silently fall back.
func TestSpeciesTopologyFailsFast(t *testing.T) {
	for _, info := range Protocols() {
		t.Run(info.Name, func(t *testing.T) {
			_, err := New(Config{Protocol: info.Name, N: 16, R: 4, Seed: 1,
				Backend: BackendSpecies, Topology: Ring()})
			if err == nil {
				t.Fatalf("%s: species backend accepted a ring topology", info.Name)
			}
			compactable := hasCapability(info.Capabilities, CapabilityCompactable)
			if compactable && !strings.Contains(err.Error(), "capability table") {
				t.Fatalf("%s: error does not point at the capability table: %v", info.Name, err)
			}
			if !compactable && !strings.Contains(err.Error(), "species form") {
				t.Fatalf("%s: unexpected error: %v", info.Name, err)
			}
			// BackendAuto at the threshold resolves to species for
			// compactable protocols and must fail the same way, before any
			// population is built.
			if compactable {
				_, err := New(Config{Protocol: info.Name, N: SpeciesAutoThreshold, Seed: 1,
					Backend: BackendAuto, Topology: Ring()})
				if err == nil || !strings.Contains(err.Error(), "capability table") {
					t.Fatalf("%s: auto at n=2^16 with a ring topology: %v", info.Name, err)
				}
			}
		})
	}
}

// TestTopologyValidation: unbuildable topology parameters fail System
// construction with a topology-naming error.
func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"odd-degree odd-n", Config{N: 15, R: 3, Topology: RandomRegular(3)}},
		{"degree too large", Config{N: 4, R: 2, Topology: RandomRegular(8)}},
		{"bad density", Config{N: 16, R: 4, Topology: ErdosRenyi(2)}},
		{"nil generator", Config{N: 16, R: 4, Topology: NewTopology("broken", nil)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil {
				t.Fatalf("config %+v accepted", c.cfg)
			}
		})
	}
	// Valid families construct and report their materialized edge count.
	sys, err := New(Config{N: 16, R: 4, Topology: Torus2D()})
	if err != nil {
		t.Fatal(err)
	}
	if name, edges := sys.Topology(); name != "torus" || edges != 64 {
		t.Fatalf("Topology() = (%q, %d), want (torus, 64)", name, edges)
	}
	if name, edges := mustSys(t, Config{N: 16, R: 4}).Topology(); name != "complete" || edges != 0 {
		t.Fatalf("Topology() = (%q, %d), want (complete, 0)", name, edges)
	}
}

// mustSys builds a System or fails the test.
func mustSys(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEnsembleTopologyAxis: Grid.Topologies crosses topologies as a cell
// axis — cells are topology-stamped in declaration order, the JSON export
// is byte-identical for every worker count, and Compare rows carry the
// topology.
func TestEnsembleTopologyAxis(t *testing.T) {
	grid := Grid{
		Protocols:       []string{ProtocolNameRank, ProtocolFastLE},
		Topologies:      []Topology{Complete(), Ring()},
		Points:          []Point{{N: 16}},
		Seeds:           2,
		BaseSeed:        5,
		MaxInteractions: 500_000,
	}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		ens, err := NewEnsemble(grid, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res := ens.Run()
		if len(res.Cells) != 4 {
			t.Fatalf("cells = %d, want 4", len(res.Cells))
		}
		wantOrder := []struct{ proto, topo string }{
			{ProtocolNameRank, "complete"}, {ProtocolNameRank, "ring"},
			{ProtocolFastLE, "complete"}, {ProtocolFastLE, "ring"},
		}
		for i, c := range res.Cells {
			if c.Protocol != wantOrder[i].proto || c.Topology != wantOrder[i].topo {
				t.Fatalf("cell %d = (%s, %s), want (%s, %s)",
					i, c.Protocol, c.Topology, wantOrder[i].proto, wantOrder[i].topo)
			}
			if c.Recovered == 0 {
				t.Fatalf("cell %d (%s on %s) never recovered", i, c.Protocol, c.Topology)
			}
		}
		// The ring must be strictly slower than the complete graph for the
		// broadcast-based namerank — the observable convergence gap.
		complete, _ := res.Cell(CellKey{Protocol: ProtocolNameRank, Topology: "complete", Point: Point{N: 16}})
		ring, _ := res.Cell(CellKey{Protocol: ProtocolNameRank, Topology: "ring", Point: Point{N: 16}})
		if ring.Interactions.Mean <= complete.Interactions.Mean {
			t.Fatalf("ring (%f) not slower than complete (%f)",
				ring.Interactions.Mean, complete.Interactions.Mean)
		}
		blob, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		cmp := res.Compare()
		if len(cmp.Rows) != 2 || cmp.Rows[0].Topology != "complete" || cmp.Rows[1].Topology != "ring" {
			t.Fatalf("compare rows mis-pivoted: %+v", cmp.Rows)
		}
		cb, err := cmp.JSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, cb)
	}
	if !bytes.Equal(blobs[0], blobs[2]) || !bytes.Equal(blobs[1], blobs[3]) {
		t.Fatal("topology-crossed ensemble JSON differs across worker counts")
	}
}

// TestEnsembleWithoutTopologiesOmitsStamp: grids that do not cross
// topologies keep the pre-topology JSON layout — no "topolog..." keys
// anywhere.
func TestEnsembleWithoutTopologiesOmitsStamp(t *testing.T) {
	ens, err := NewEnsemble(Grid{
		Protocols: []string{ProtocolNameRank},
		Points:    []Point{{N: 16}},
		Seeds:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := ens.Run()
	blob, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("topolog")) {
		t.Fatalf("un-crossed grid stamps topology:\n%s", blob)
	}
	cb, err := res.Compare().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(cb, []byte("topolog")) {
		t.Fatalf("un-crossed compare stamps topology:\n%s", cb)
	}
}

// TestEnsembleSpeciesTopologyRejected: a grid whose backend resolution
// lands on the species backend rejects non-complete topologies at
// NewEnsemble time, with the capability-table error.
func TestEnsembleSpeciesTopologyRejected(t *testing.T) {
	_, err := NewEnsemble(Grid{
		Protocols:  []string{ProtocolCIW},
		Topologies: []Topology{Ring()},
		Points:     []Point{{N: 64}},
		Backend:    BackendSpecies,
		Seeds:      2,
	})
	if err == nil || !strings.Contains(err.Error(), "capability table") {
		t.Fatalf("species × ring grid: %v", err)
	}
	// Unbuildable topology parameters are rejected up front too.
	_, err = NewEnsemble(Grid{
		Protocols:  []string{ProtocolNameRank},
		Topologies: []Topology{RandomRegular(3)},
		Points:     []Point{{N: 15}},
		Seeds:      2,
	})
	if err == nil || !strings.Contains(err.Error(), "random-regular") {
		t.Fatalf("odd-degree odd-n grid: %v", err)
	}
	// A density whose draws are disconnected at some trial seed is rejected
	// up front: every such trial would be silently aggregated as a failure
	// to stabilize.
	_, err = NewEnsemble(Grid{
		Protocols:  []string{ProtocolNameRank},
		Topologies: []Topology{ErdosRenyi(0.08)},
		Points:     []Point{{N: 32}},
		Seeds:      5,
	})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("sparse disconnected ER grid: %v", err)
	}
}

// TestTopologyRejectsPairLawSchedulers: schedulers that deal pairs from
// [n]² (batch, zipf, weighted, pair-mode recordings) fail a topology run
// up front instead of silently simulating the complete graph; topology-
// aware ones (Sampler, a Recorder around it, edge-indexed replays) pass.
func TestTopologyRejectsPairLawSchedulers(t *testing.T) {
	newSys := func() *System {
		return mustSys(t, Config{Protocol: ProtocolNameRank, N: 16, Seed: 3, Topology: Ring()})
	}
	pairRec := NewRecorder(NewUniform(4))
	pairRec.Pair(16)
	rejected := map[string]Scheduler{
		"batch":            NewBatch(4, 64),
		"zipf":             NewZipf(4, 16, 0.8),
		"weighted":         NewWeighted(4, []float64{1, 2, 3, 4}),
		"uniform recorder": NewRecorder(NewUniform(4)),
		"pair-mode replay": pairRec.Recording().Replay(),
	}
	for name, sched := range rejected {
		res := newSys().Run(WithScheduler(sched))
		if res.Err == nil || res.Interactions != 0 {
			t.Errorf("%s scheduler accepted on a ring topology: %+v", name, res)
		}
	}
	sys := newSys()
	accepted := map[string]Scheduler{
		"sampler":          sys.Sampler(5),
		"sampler recorder": NewRecorder(newSys().Sampler(5)),
	}
	for name, sched := range accepted {
		res := newSys().Run(WithScheduler(sched))
		if res.Err != nil {
			t.Errorf("%s scheduler rejected on a ring topology: %v", name, res.Err)
		}
	}
	// A topology schedule from a DIFFERENT graph — another population size
	// or family — is rejected too: replaying it here would run off-graph
	// pairs under this system's topology label.
	other := mustSys(t, Config{Protocol: ProtocolNameRank, N: 32, Seed: 3, Topology: Ring()})
	if res := newSys().Run(WithScheduler(other.Sampler(5))); res.Err == nil {
		t.Error("sampler of a 32-agent ring accepted on a 16-agent ring system")
	}
	torus := mustSys(t, Config{Protocol: ProtocolNameRank, N: 16, Seed: 3, Topology: Torus2D()})
	if res := newSys().Run(WithScheduler(torus.Sampler(5))); res.Err == nil {
		t.Error("torus sampler accepted on a ring system")
	}

	// StepSched makes Run's scheduler check: a pair-law scheduler on a ring,
	// and anything but a uniform stream on the species backend, is an error
	// and steps nothing.
	if sys := newSys(); sys.StepSched(NewBatch(4, 64), 10) == nil || sys.Interactions() != 0 {
		t.Error("StepSched accepted a batch scheduler on a ring topology")
	}
	onSpecies := mustSys(t, Config{Protocol: ProtocolCIW, N: 16, Seed: 3, Backend: BackendSpecies})
	if onSpecies.StepSched(NewZipf(4, 16, 0.8), 10) == nil || onSpecies.Interactions() != 0 {
		t.Error("StepSched accepted a zipf scheduler on the species backend")
	}
	if err := onSpecies.StepSched(NewUniform(4), 10); err != nil || onSpecies.Interactions() != 10 {
		t.Errorf("StepSched rejected a uniform scheduler on the species backend: %v", err)
	}
}

// TestTopologyConnected: the union-find connectivity check is reachable
// through the public surface — complete and ring are connected, a sparse
// Erdős–Rényi draw is detectably not.
func TestTopologyConnected(t *testing.T) {
	if !mustSys(t, Config{N: 16, R: 4}).TopologyConnected() {
		t.Error("complete topology reported disconnected")
	}
	if !mustSys(t, Config{N: 16, R: 4, Topology: Ring()}).TopologyConnected() {
		t.Error("ring reported disconnected")
	}
	// At p = 0.08 and n = 32 a draw is essentially never connected; scan a
	// few seeds so the test does not hinge on one.
	sawDisconnected := false
	for seed := uint64(0); seed < 10 && !sawDisconnected; seed++ {
		sys, err := New(Config{N: 32, R: 8, Seed: seed, Topology: ErdosRenyi(0.08)})
		if err != nil {
			continue // the draw had no edges at all — also a detected failure
		}
		sawDisconnected = !sys.TopologyConnected()
	}
	if !sawDisconnected {
		t.Error("no disconnected sparse ER draw detected across 10 seeds")
	}
}

// TestStepOnTopologyStaysOnGraph: Step and StepSched sample the system's
// edge set — on a two-agent line, only the pair (0, 1) in either order can
// ever interact; under a ring of 16 nothing outside the ring edges fires.
// Observable through namerank: after many steps on a ring, names can only
// have traveled along ring edges — here we simply assert the run advances
// and the clock counts.
func TestStepOnTopologyStaysOnGraph(t *testing.T) {
	sys := mustSys(t, Config{Protocol: ProtocolNameRank, N: 16, Seed: 3, Topology: Ring()})
	sys.Step(4, 100)
	if sys.Interactions() != 100 {
		t.Fatalf("clock = %d, want 100", sys.Interactions())
	}
	if err := sys.StepSched(NewUniform(5), 50); err != nil {
		t.Fatal(err)
	}
	if sys.Interactions() != 150 {
		t.Fatalf("clock = %d, want 150", sys.Interactions())
	}
}

// BenchmarkRunCompleteDefault and BenchmarkRunCompleteExplicit pin the
// zero-overhead claim of the topology refactor: an explicit Complete()
// topology runs the identical engine loop as the historical zero-value
// configuration (the non-complete path is benchmarked separately below and
// in internal/sim).
func benchRun(b *testing.B, top Topology) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys, err := New(Config{Protocol: ProtocolCIW, N: 256, Seed: 1, Topology: top})
		if err != nil {
			b.Fatal(err)
		}
		sys.Step(2, 100_000)
	}
}

func BenchmarkRunCompleteDefault(b *testing.B)  { benchRun(b, Topology{}) }
func BenchmarkRunCompleteExplicit(b *testing.B) { benchRun(b, Complete()) }
func BenchmarkRunRing(b *testing.B)             { benchRun(b, Ring()) }

// TestParseTopologyRoundTrip pins ParseTopology as the inverse of Name for
// every built-in family, in both the Name() spelling and the historical
// benchtab flag spelling; unknown and malformed names are rejected.
func TestParseTopologyRoundTrip(t *testing.T) {
	for _, top := range []Topology{
		Complete(), Ring(), Torus2D(), RandomRegular(8), ErdosRenyi(0.1),
	} {
		got, err := ParseTopology(top.Name())
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", top.Name(), err)
		}
		if got.Name() != top.Name() {
			t.Fatalf("ParseTopology(%q).Name() = %q", top.Name(), got.Name())
		}
	}
	for name, want := range map[string]string{
		"":                  "complete",
		"random-regular=8":  "random-regular(8)",
		"erdos-renyi=0.1":   "erdos-renyi(0.1)",
		"erdos-renyi=0.125": "erdos-renyi(0.125)",
	} {
		got, err := ParseTopology(name)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", name, err)
		}
		if got.Name() != want {
			t.Fatalf("ParseTopology(%q).Name() = %q, want %q", name, got.Name(), want)
		}
	}
	for _, name := range []string{"mesh", "random-regular(x)", "random-regular(8", "erdos-renyi", "erdos-renyi(pi)"} {
		if _, err := ParseTopology(name); err == nil {
			t.Fatalf("ParseTopology(%q) accepted", name)
		}
	}
}
