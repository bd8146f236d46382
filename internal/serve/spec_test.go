package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"sspp"
)

// TestResolutionAgreement enumerates every registry protocol × backend
// selector × topology × clock × population × synthetic-coin setting and
// checks that the three ways into the engine agree on accept/reject: a
// single sspp.New, a one-point sspp.NewEnsemble, and sppd's Cells() +
// ensemble(). Where they accept, the backend sppd hashes must be the
// backend the System actually runs. Everything is constructed; nothing runs.
func TestResolutionAgreement(t *testing.T) {
	combos, accepted := 0, 0
	for _, info := range sspp.Protocols() {
		for _, backend := range []string{"", sspp.BackendAgent, sspp.BackendSpecies, sspp.BackendAuto} {
			for _, topo := range []string{"complete", "ring"} {
				top, err := sspp.ParseTopology(topo)
				if err != nil {
					t.Fatal(err)
				}
				for _, clock := range []string{sspp.ClockDiscrete, sspp.ClockContinuous, sspp.ClockContinuousExact} {
					for _, n := range []int{64, sspp.SpeciesAutoThreshold} {
						for _, coins := range []bool{false, true} {
							combos++
							name := func() string {
								b, _ := json.Marshal([]any{info.Name, backend, topo, clock, n, coins})
								return string(b)
							}
							pt := sspp.Point{N: n, R: 8}
							sys, errNew := sspp.New(sspp.Config{Protocol: info.Name, N: n, R: 8, Seed: 1,
								SyntheticCoins: coins, Backend: backend, Topology: top, Clock: clock})
							_, errEns := sspp.NewEnsemble(sspp.Grid{
								Protocols:      []string{info.Name},
								Topologies:     []sspp.Topology{top},
								Clocks:         []string{clock},
								Points:         []sspp.Point{pt},
								Seeds:          1,
								SyntheticCoins: coins,
								Backend:        backend,
							})
							spec := GridSpec{
								Protocols:      []string{info.Name},
								Backends:       []string{backend},
								Topologies:     []string{topo},
								Clocks:         []string{clock},
								Points:         []sspp.Point{pt},
								Seeds:          1,
								SyntheticCoins: coins,
							}
							cells, err := spec.Cells()
							if err != nil || len(cells) != 1 {
								t.Fatalf("%s: Cells() = %d cells, %v", name(), len(cells), err)
							}
							_, errServe := cells[0].ensemble()
							if (errNew == nil) != (errEns == nil) || (errNew == nil) != (errServe == nil) {
								t.Fatalf("%s: accept/reject disagree:\n New:         %v\n NewEnsemble: %v\n sppd:        %v",
									name(), errNew, errEns, errServe)
							}
							if errNew != nil {
								continue
							}
							accepted++
							if got, want := cells[0].Backend, sys.Backend(); got != want {
								t.Fatalf("%s: sppd hashes backend %q, the System runs %q", name(), got, want)
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 || accepted == combos {
		t.Fatalf("%d of %d combinations accepted; the cross product must exercise both outcomes", accepted, combos)
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
