package serve

import (
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sspp"
)

// TestResolutionAgreement enumerates every registry protocol × backend
// selector × topology × clock × population × synthetic-coin setting and
// checks that the three ways into the engine agree on accept/reject: a
// single sspp.New, a one-point sspp.NewEnsemble, and sppd's Cells() +
// ensemble(). Where they reject, they reject with the same text: sppd's
// error is NewEnsemble's, and NewEnsemble's is New's with at most one
// coordinate prefix. Where they accept, the backend sppd hashes must be the
// backend the System actually runs. Everything is constructed; nothing runs.
func TestResolutionAgreement(t *testing.T) {
	combos, accepted := 0, 0
	check := func(name string, cfg sspp.Config, spec GridSpec) {
		t.Helper()
		combos++
		pt := spec.Points[0]
		top, err := sspp.ParseTopology(spec.Topologies[0])
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = top
		sys, errNew := sspp.New(cfg)
		_, errEns := sspp.NewEnsemble(sspp.Grid{
			Protocols:      []string{cfg.Protocol},
			Topologies:     []sspp.Topology{top},
			Clocks:         []string{cfg.Clock},
			Points:         []sspp.Point{pt},
			Seeds:          1,
			SyntheticCoins: cfg.SyntheticCoins,
			Backend:        cfg.Backend,
		})
		cells, err := spec.Cells()
		if err != nil || len(cells) != 1 {
			t.Fatalf("%s: Cells() = %d cells, %v", name, len(cells), err)
		}
		_, errServe := cells[0].ensemble()
		if (errNew == nil) != (errEns == nil) || (errNew == nil) != (errServe == nil) {
			t.Fatalf("%s: accept/reject disagree:\n New:         %v\n NewEnsemble: %v\n sppd:        %v",
				name, errNew, errEns, errServe)
		}
		if errNew != nil {
			if errServe.Error() != errEns.Error() {
				t.Fatalf("%s: sppd and NewEnsemble reject with different texts:\n NewEnsemble: %v\n sppd:        %v",
					name, errEns, errServe)
			}
			if !sameRule(errNew, errEns) {
				t.Fatalf("%s: NewEnsemble's text is not New's with at most one coordinate prefix:\n New:         %v\n NewEnsemble: %v",
					name, errNew, errEns)
			}
			return
		}
		accepted++
		if got, want := cells[0].Backend, sys.Backend(); got != want {
			t.Fatalf("%s: sppd hashes backend %q, the System runs %q", name, got, want)
		}
	}
	for _, info := range sspp.Protocols() {
		for _, backend := range []string{"", sspp.BackendAgent, sspp.BackendSpecies, sspp.BackendAuto} {
			for _, topo := range []string{"complete", "ring"} {
				for _, clock := range []string{sspp.ClockDiscrete, sspp.ClockContinuous, sspp.ClockContinuousExact} {
					for _, n := range []int{64, sspp.SpeciesAutoThreshold} {
						for _, coins := range []bool{false, true} {
							b, _ := json.Marshal([]any{info.Name, backend, topo, clock, n, coins})
							check(string(b),
								sspp.Config{Protocol: info.Name, N: n, R: 8, Seed: 1, SyntheticCoins: coins, Backend: backend, Clock: clock},
								GridSpec{
									Protocols:      []string{info.Name},
									Backends:       []string{backend},
									Topologies:     []string{topo},
									Clocks:         []string{clock},
									Points:         []sspp.Point{{N: n, R: 8}},
									Seeds:          1,
									SyntheticCoins: coins,
								})
						}
					}
				}
			}
		}
	}
	// Rejections that carry a coordinate: a parameter point the protocol
	// refuses, and a topology that cannot be drawn at the point.
	for _, c := range []struct {
		name, topo string
		pt         sspp.Point
	}{
		{"r > n/2", "complete", sspp.Point{N: 64, R: 40}},
		{"odd-degree random-regular on an odd population", "random-regular(3)", sspp.Point{N: 9, R: 1}},
	} {
		check(c.name,
			sspp.Config{Protocol: sspp.ProtocolElectLeader, N: c.pt.N, R: c.pt.R, Seed: 1, Clock: sspp.ClockDiscrete},
			GridSpec{Topologies: []string{c.topo}, Points: []sspp.Point{c.pt}, Seeds: 1})
	}
	if accepted == 0 || accepted == combos {
		t.Fatalf("%d of %d combinations accepted; the cross product must exercise both outcomes", accepted, combos)
	}
}

// coordinatePrefix is the one coordinate NewEnsemble may put in front of
// the single-system text: the grid point, and the protocol or the seed
// whose draw failed.
var coordinatePrefix = regexp.MustCompile(`^ensemble point \(n=\d+(, r=\d+)?\)( for protocol "[a-z]+"|, seed \d+)?: `)

// sameRule reports whether ens, an Ensemble-path rejection, is single's
// text with at most one coordinate prefix, and whether neither repeats the
// "sspp:" prefix.
func sameRule(single, ens error) bool {
	s, e := single.Error(), ens.Error()
	if strings.Count(s, "sspp:") > 1 || strings.Count(e, "sspp:") > 1 {
		return false
	}
	if s == e {
		return true
	}
	s, e = strings.TrimPrefix(s, "sspp: "), strings.TrimPrefix(e, "sspp: ")
	loc := coordinatePrefix.FindStringIndex(e)
	return loc != nil && e[loc[1]:] == s
}

// TestAdmissionAgreement reaches each run-time combination through the
// single-system path (Run, Inject, InjectTransient, RecordTrace) and the
// Ensemble path (NewEnsemble, TrialRecording). The outcomes are the ones
// both paths had before admission was decided by one function; where both
// reject, they must reject with the same text. The two deliberate
// asymmetries are named exceptions with differing outcomes.
func TestAdmissionAgreement(t *testing.T) {
	ring, err := sspp.ParseTopology("ring")
	if err != nil {
		t.Fatal(err)
	}
	churn := sspp.NewWorkload(sspp.ReplacementChurn(0, 0, 1, "", 3))
	faults := sspp.NewWorkload(sspp.TransientBurst(100, 2, 3))
	ciw := sspp.Config{Protocol: sspp.ProtocolCIW, N: 64, Seed: 1}
	namerank := sspp.Config{Protocol: sspp.ProtocolNameRank, N: 64, Seed: 1}
	species, onRing := ciw, ciw
	species.Backend = sspp.BackendSpecies
	onRing.Topology = ring

	build := func(cfg sspp.Config) *sspp.System {
		sys, err := sspp.New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		return sys
	}
	run := func(cfg sspp.Config, opts ...sspp.RunOption) func() error {
		return func() error {
			return build(cfg).Run(append(opts, sspp.SchedulerSeed(2), sspp.MaxInteractions(4000))...).Err
		}
	}
	inject := func(cfg sspp.Config) func() error {
		return func() error { return build(cfg).Inject(sspp.AdversaryTwoLeaders, 7) }
	}
	injectTransient := func(cfg sspp.Config) func() error {
		return func() error { _, err := build(cfg).InjectTransient(2, 7); return err }
	}
	grid := func(cfg sspp.Config, g sspp.Grid) sspp.Grid {
		g.Protocols = []string{cfg.Protocol}
		g.Topologies = []sspp.Topology{cfg.Topology}
		g.Backend = cfg.Backend
		g.Points = []sspp.Point{{N: cfg.N, R: cfg.R}}
		g.Seeds = 1
		g.MaxInteractions = 4000
		return g
	}
	ensemble := func(cfg sspp.Config, g sspp.Grid) func() error {
		return func() error { _, err := sspp.NewEnsemble(grid(cfg, g)); return err }
	}
	recording := func(cfg sspp.Config) func() error {
		return func() error {
			ens, err := sspp.NewEnsemble(grid(cfg, sspp.Grid{}))
			if err != nil {
				return err
			}
			_, _, err = ens.TrialRecording(0, 0)
			return err
		}
	}
	var tr *sspp.WorkloadTrace
	classes := []sspp.Adversary{sspp.AdversaryTwoLeaders}
	for _, row := range []struct {
		name            string
		single, ens     func() error
		singleOK, ensOK bool
		exception       string // why the outcomes differ on purpose
	}{
		{name: "churn workload × complete", single: run(ciw, sspp.WithWorkload(churn)), ens: ensemble(ciw, sspp.Grid{Workload: churn}),
			singleOK: true, ensOK: true},
		{name: "churn workload × ring", single: run(onRing, sspp.WithWorkload(churn)), ens: ensemble(onRing, sspp.Grid{Workload: churn})},
		{name: "fault phases × namerank", single: run(namerank, sspp.WithWorkload(faults)), ens: ensemble(namerank, sspp.Grid{Workload: faults})},
		{name: "churn phases × namerank", single: run(namerank, sspp.WithWorkload(churn)), ens: ensemble(namerank, sspp.Grid{Workload: churn})},
		{name: "transient faults × namerank", single: injectTransient(namerank), ens: ensemble(namerank, sspp.Grid{TransientK: 2})},
		{name: "scheduled transient faults × namerank", single: run(namerank, sspp.InjectTransientAt(10, 2, 7)),
			ens: ensemble(namerank, sspp.Grid{TransientK: 2})},
		{name: "species × adversary", single: inject(species), ens: ensemble(species, sspp.Grid{Adversaries: classes})},
		{name: "species × TransientK", single: injectTransient(species), ens: ensemble(species, sspp.Grid{TransientK: 2})},
		{name: "species × scheduled transient faults", single: run(species, sspp.InjectTransientAt(10, 2, 7)),
			ens: ensemble(species, sspp.Grid{TransientK: 2})},
		{name: "recording × agent", single: run(ciw, sspp.RecordTrace(&tr)), ens: recording(ciw), singleOK: true, ensOK: true},
		{name: "recording × species", single: run(species, sspp.RecordTrace(&tr)), ens: recording(species)},
		{name: "recording × ring", single: run(onRing, sspp.RecordTrace(&tr)), ens: recording(onRing)},
		{name: "non-injectable × adversary", single: inject(namerank), ens: ensemble(namerank, sspp.Grid{Adversaries: classes}),
			ensOK: true, exception: "an Ensemble counts a class its protocol cannot realize as failed trials (Grid.Adversaries)"},
		{name: "species × churn workload", single: run(species, sspp.WithWorkload(churn)), ens: ensemble(species, sspp.Grid{Workload: churn}),
			singleOK: true, ensOK: true},
		{name: "species × fault phases", single: run(species, sspp.WithWorkload(faults)), ens: ensemble(species, sspp.Grid{Workload: faults})},
	} {
		errSingle, errEns := row.single(), row.ens()
		if (errSingle == nil) != row.singleOK || (errEns == nil) != row.ensOK {
			t.Fatalf("%s: outcomes changed (want single ok=%v, ensemble ok=%v):\n single:   %v\n ensemble: %v",
				row.name, row.singleOK, row.ensOK, errSingle, errEns)
		}
		if row.exception == "" && row.singleOK != row.ensOK {
			t.Fatalf("%s: the paths disagree without a named exception", row.name)
		}
		if errSingle != nil && errEns != nil && !sameRule(errSingle, errEns) {
			t.Fatalf("%s: the paths reject with different texts:\n single:   %v\n ensemble: %v", row.name, errSingle, errEns)
		}
	}
}

// FuzzGridSpec feeds arbitrary request bodies through the decomposition and
// hashing path sppd runs on every submission: JSON decode → Cells() →
// Hash(). It checks that nothing panics, that Cells is deterministic, and
// that equal cells hash equal. No ensemble is built or run: validation and
// simulation costs are bounded by the server's per-request caps, which the
// fuzz body does not apply.
func FuzzGridSpec(f *testing.F) {
	for _, g := range []GridSpec{goldenGrid(), smallGrid(), {
		Backends: []string{sspp.BackendAuto, sspp.BackendSpecies, ""},
		Points:   []sspp.Point{{N: sspp.SpeciesAutoThreshold, R: 8}, {N: 64, R: 8}},
		Clocks:   []string{"", sspp.ClockContinuousExact},
	}} {
		b, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"protocols":["ciw","nope"],"points":[{"n":8}]}`))
	f.Add([]byte(`{"topologies":["random-regular=3","torus"],"points":[{"n":9,"r":1}],"seeds":-1}`))
	f.Add([]byte(`{"clocks":["sundial"],"points":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec GridSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		// The server caps the cross product before building anything; keep
		// the fuzz body's memory bounded the same way.
		product := len(spec.Points)
		for _, axis := range [][]string{spec.Protocols, spec.Backends, spec.Topologies, spec.Clocks, spec.Adversaries} {
			product *= max(len(axis), 1)
		}
		if product > 256 {
			return
		}
		cells, err := spec.Cells()
		again, errAgain := spec.Cells()
		if (err == nil) != (errAgain == nil) || !reflect.DeepEqual(cells, again) {
			t.Fatalf("Cells is not deterministic:\n%+v, %v\n%+v, %v", cells, err, again, errAgain)
		}
		if err != nil {
			return
		}
		hashes := make([]string, len(cells))
		for i := range cells {
			hashes[i] = cells[i].Hash()
			if hashes[i] != again[i].Hash() {
				t.Fatalf("cell %d hashes apart across decompositions", i)
			}
		}
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				if reflect.DeepEqual(cells[i], cells[j]) && hashes[i] != hashes[j] {
					t.Fatalf("equal cells %d and %d hash apart: %s vs %s", i, j, hashes[i], hashes[j])
				}
			}
		}
	})
}
