package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sspp"
)

// goldenGrid crosses every axis the hash covers: protocols, backends,
// topologies, clocks, points, adversaries — plus every scalar knob and a
// workload schedule exercising string, integer and float phase fields.
// 2·2·2·2·2·2 = 64 cells. The spec is for hashing only (species × ring
// combinations would fail validation; content addressing is defined on
// resolved specs, valid or not).
func goldenGrid() GridSpec {
	return GridSpec{
		Protocols:   []string{sspp.ProtocolElectLeader, sspp.ProtocolCIW},
		Backends:    []string{sspp.BackendAgent, sspp.BackendSpecies},
		Topologies:  []string{"complete", "random-regular(8)"},
		Clocks:      []string{sspp.ClockDiscrete, sspp.ClockContinuous},
		Points:      []sspp.Point{{N: 64, R: 8}, {N: 128, R: 16}},
		Adversaries: []string{"", string(sspp.AdversaryTwoLeaders)},
		Seeds:       3,
		BaseSeed:    7,

		MaxInteractions: 50000,
		Confirm:         640,
		Tau:             9,
		Workload: []PhaseSpec{
			{Kind: "transient-burst", At: 1000, K: 4, Seed: 11},
			{Kind: "replacement-churn", Start: 2000, End: 3000, Rate: 0.125, Class: string(sspp.AdversaryRandomGarbage), Seed: 12},
			{Kind: "join-leave-churn", Start: 3000, End: 4000, Rate: 0.0625, JoinFrac: 0.75, Seed: 13},
		},
	}
}

// TestCanonicalHashGolden pins the content-address scheme: the hashes below
// are load-bearing bytes. If this test fails because the canonical encoding
// changed on purpose, bump HashVersion (or EngineEpoch for an engine
// semantics change) and re-pin — a silent change would alias new results
// onto stale cache entries.
func TestCanonicalHashGolden(t *testing.T) {
	g := goldenGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 64 {
		t.Fatalf("golden grid crosses to %d cells, want 64", len(cells))
	}

	hashes := make([]string, len(cells))
	seen := make(map[string]int)
	for i := range cells {
		hashes[i] = cells[i].Hash()
		if prev, dup := seen[hashes[i]]; dup {
			t.Fatalf("cells %d and %d collide on %s", prev, i, hashes[i])
		}
		seen[hashes[i]] = i
	}

	// First and last cell pinned in full, the whole set pinned through a
	// combined digest over the 64 hex strings in decomposition order.
	const (
		wantFirst    = "f0d01aecee295dee6c950594f76eb585e9a8e39090302aec54817fa15b7d6cff"
		wantLast     = "852a8788bbac78e8297b383da8e417d457812ea64a5223cb8d9b3a13e64f82b1"
		wantCombined = "50cfa4142f409efe2c8252060449c98536e838ed1a72ecb111696970931a9787"
	)
	combined := sha256.New()
	for _, h := range hashes {
		combined.Write([]byte(h))
	}
	if hashes[0] != wantFirst {
		t.Errorf("cell 0 hash:\n got %s\nwant %s", hashes[0], wantFirst)
	}
	if hashes[63] != wantLast {
		t.Errorf("cell 63 hash:\n got %s\nwant %s", hashes[63], wantLast)
	}
	if got := hex.EncodeToString(combined.Sum(nil)); got != wantCombined {
		t.Errorf("combined digest over all 64 cell hashes:\n got %s\nwant %s", got, wantCombined)
	}
	if t.Failed() {
		t.Logf("regeneration values: first=%s last=%s combined=%s",
			hashes[0], hashes[63], hex.EncodeToString(combined.Sum(nil)))
	}
}

// TestHashSelectorInvariance checks that spelling never leaks into the
// address: default selectors hash like their explicit forms, and the two
// topology-parameter spellings canonicalize together.
func TestHashSelectorInvariance(t *testing.T) {
	base := GridSpec{Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 2}
	explicit := GridSpec{
		Protocols:  []string{sspp.ProtocolElectLeader},
		Backends:   []string{sspp.BackendAgent},
		Topologies: []string{"complete"},
		Clocks:     []string{sspp.ClockDiscrete},
		Points:     []sspp.Point{{N: 32, R: 8}},
		Seeds:      2,
	}
	h1 := mustOneCell(t, base).Hash()
	h2 := mustOneCell(t, explicit).Hash()
	if h1 != h2 {
		t.Errorf("default selectors hash %s, explicit forms %s", h1, h2)
	}

	flagForm := GridSpec{Topologies: []string{"random-regular=8"}, Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 2}
	nameForm := GridSpec{Topologies: []string{"random-regular(8)"}, Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 2}
	if a, b := mustOneCell(t, flagForm).Hash(), mustOneCell(t, nameForm).Hash(); a != b {
		t.Errorf("topology spellings hash apart: %s vs %s", a, b)
	}

	// The auto selector resolves before hashing: past the species threshold
	// it addresses the same cell as an explicit species selector.
	big := sspp.Point{N: sspp.SpeciesAutoThreshold, R: 8}
	auto := GridSpec{Backends: []string{sspp.BackendAuto}, Points: []sspp.Point{big}, Seeds: 2}
	speciesForm := GridSpec{Backends: []string{sspp.BackendSpecies}, Points: []sspp.Point{big}, Seeds: 2}
	if a, b := mustOneCell(t, auto).Hash(), mustOneCell(t, speciesForm).Hash(); a != b {
		t.Errorf("auto past threshold hashes %s, explicit species %s", a, b)
	}

	// The checkpoint cadence is telemetry, not content: it must not move
	// the address.
	observed := base
	observed.CheckpointEvery = 100
	if a, b := mustOneCell(t, base).Hash(), mustOneCell(t, observed).Hash(); a != b {
		t.Errorf("checkpoint cadence moved the address: %s vs %s", a, b)
	}

	// And every scalar knob must move it.
	knobs := []func(*GridSpec){
		func(g *GridSpec) { g.Seeds = 3 },
		func(g *GridSpec) { g.BaseSeed = 1 },
		func(g *GridSpec) { g.MaxInteractions = 1 },
		func(g *GridSpec) { g.Confirm = 1 },
		func(g *GridSpec) { g.TransientK = 1 },
		func(g *GridSpec) { g.Tau = 1 },
		func(g *GridSpec) { g.SyntheticCoins = true },
		func(g *GridSpec) { g.Workload = []PhaseSpec{{Kind: "leave", At: 1}} },
	}
	for i, knob := range knobs {
		spec := base
		knob(&spec)
		if got := mustOneCell(t, spec).Hash(); got == h1 {
			t.Errorf("knob %d did not move the address", i)
		}
	}
}

func mustOneCell(t *testing.T, g GridSpec) *CellSpec {
	t.Helper()
	cells, err := g.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 1 {
		t.Fatalf("grid crosses to %d cells, want 1", len(cells))
	}
	return &cells[0]
}
