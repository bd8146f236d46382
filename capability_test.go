// capability_test.go pins the full capability-dispatch matrix: every
// registry protocol × every optional engine capability, on both backends. A
// capability is a structural type assertion at the engine's call sites, so
// an accidental method rename or a refactor that drops an interface would
// silently change engine behaviour (wrong safe-set fallback, lost
// injection, no species form); this table makes any such drift a test
// failure that names the protocol and the capability.

package sspp

import (
	"testing"

	"sspp/internal/sim"
)

// capabilityProbes enumerates every optional capability the engine
// dispatches on, as structural probes over the built protocol.
var capabilityProbes = []struct {
	name  string
	probe func(p sim.Protocol) bool
}{
	{CapabilityRanker, func(p sim.Protocol) bool { _, ok := p.(sim.Ranker); return ok }},
	{CapabilitySafeSet, func(p sim.Protocol) bool { _, ok := p.(sim.SafeSetter); return ok }},
	{CapabilityInjectable, func(p sim.Protocol) bool { _, ok := p.(sim.Injectable); return ok }},
	{CapabilitySnapshotter, func(p sim.Protocol) bool { _, ok := p.(sim.Snapshotter); return ok }},
	{CapabilityCompactable, func(p sim.Protocol) bool { _, ok := p.(sim.Compactable); return ok }},
	{"count-based", func(p sim.Protocol) bool { _, ok := p.(sim.CountBased); return ok }},
	{CapabilityChurnable, func(p sim.Protocol) bool { _, ok := sim.AsChurnable(p); return ok }},
	{"ranking-checker", func(p sim.Protocol) bool {
		_, ok := p.(interface{ CorrectRanking() bool })
		return ok
	}},
	{"leader-indexer", func(p sim.Protocol) bool { _, ok := sim.AsLeaderIndexer(p); return ok }},
}

// TestCapabilityDispatchMatrix enumerates protocol × capability × backend
// and asserts exactly which type assertions succeed.
func TestCapabilityDispatchMatrix(t *testing.T) {
	type row struct {
		protocol string
		backend  string
		want     map[string]bool
	}
	rows := []row{
		{ProtocolElectLeader, BackendAgent, map[string]bool{
			CapabilityRanker: true, CapabilitySafeSet: true, CapabilityInjectable: true,
			CapabilitySnapshotter: true, CapabilityCompactable: true, CapabilityChurnable: true,
			"ranking-checker": true, "leader-indexer": true,
		}},
		{ProtocolCIW, BackendAgent, map[string]bool{
			CapabilityRanker: true, CapabilitySafeSet: true, CapabilityInjectable: true,
			CapabilityCompactable: true, CapabilityChurnable: true, "ranking-checker": true, "leader-indexer": true,
		}},
		{ProtocolNameRank, BackendAgent, map[string]bool{
			CapabilityRanker: true, CapabilitySafeSet: true, CapabilityCompactable: true,
			"ranking-checker": true, "leader-indexer": true,
		}},
		{ProtocolLooseLE, BackendAgent, map[string]bool{
			CapabilityInjectable: true, CapabilityCompactable: true, CapabilityChurnable: true, "leader-indexer": true,
		}},
		{ProtocolFastLE, BackendAgent, map[string]bool{
			CapabilitySafeSet: true, "leader-indexer": true,
		}},
		// The species backend swaps the protocol for its count-based form:
		// per-agent capabilities (ranks, injection) disappear, the safe set
		// survives exactly when the compact model defines one, churn exactly
		// when it declares churn hooks, and the count-based capability
		// appears.
		{ProtocolCIW, BackendSpecies, map[string]bool{
			CapabilitySafeSet: true, CapabilityChurnable: true, "count-based": true,
			"ranking-checker": true,
		}},
		{ProtocolNameRank, BackendSpecies, map[string]bool{
			CapabilitySafeSet: true, "count-based": true,
			"ranking-checker": true,
		}},
		{ProtocolLooseLE, BackendSpecies, map[string]bool{
			CapabilityChurnable: true, "count-based": true, "ranking-checker": true,
		}},
		// ElectLeader_r's species form (internal/core/compact.go): the safe
		// set survives — the compact model checks Lemma 6.1 over counts —
		// but per-agent surfaces (ranks, injection, snapshots, the leader's
		// index) do not exist in a multiset.
		{ProtocolElectLeader, BackendSpecies, map[string]bool{
			CapabilitySafeSet: true, CapabilityChurnable: true, "count-based": true,
			"ranking-checker": true,
		}},
	}
	for _, r := range rows {
		cfg := Config{Protocol: r.protocol, N: 16, R: 4, Seed: 1, Backend: r.backend}
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.protocol, r.backend, err)
		}
		for _, c := range capabilityProbes {
			if got := c.probe(sys.proto); got != r.want[c.name] {
				t.Errorf("%s/%s: capability %q = %v, want %v",
					r.protocol, r.backend, c.name, got, r.want[c.name])
			}
		}
		if got := sys.Backend(); got != r.backend {
			t.Errorf("%s: Backend() = %q, want %q", r.protocol, got, r.backend)
		}
	}
}

// TestRankerImpliesRankingChecker: the narrow ranking-checker probe the
// engine uses for CorrectRanking must cover every full Ranker, so widening
// the dispatch can never drop a protocol.
func TestRankerImpliesRankingChecker(t *testing.T) {
	for name, cfg := range registryConfigs() {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sys.proto.(sim.Ranker); !ok {
			continue
		}
		if _, ok := sys.proto.(interface{ CorrectRanking() bool }); !ok {
			t.Errorf("%s: Ranker without CorrectRanking dispatch", name)
		}
	}
}

// TestCapabilitiesReflectBackend: the public Capabilities() surface must
// report the running backend's capability set, and the catalogue
// (Protocols()) the agent-level one including compactability.
func TestCapabilitiesReflectBackend(t *testing.T) {
	agent, err := New(Config{Protocol: ProtocolCIW, N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCapability(agent.Capabilities(), CapabilityCompactable) {
		t.Fatalf("agent CIW capabilities %v lack %q", agent.Capabilities(), CapabilityCompactable)
	}
	spec, err := New(Config{Protocol: ProtocolCIW, N: 16, Seed: 1, Backend: BackendSpecies})
	if err != nil {
		t.Fatal(err)
	}
	caps := spec.Capabilities()
	if hasCapability(caps, CapabilityInjectable) || hasCapability(caps, CapabilityRanker) {
		t.Fatalf("species CIW capabilities %v report per-agent surfaces", caps)
	}
	if !hasCapability(caps, CapabilitySafeSet) {
		t.Fatalf("species CIW capabilities %v lost the safe set", caps)
	}
	// CIW's species form declares churn hooks, so the species system joins
	// and leaves and must say so; NameRank's declares none.
	if !hasCapability(caps, CapabilityChurnable) {
		t.Fatalf("species CIW capabilities %v lack %q", caps, CapabilityChurnable)
	}
	names, err := New(Config{Protocol: ProtocolNameRank, N: 16, Seed: 1, Backend: BackendSpecies})
	if err != nil {
		t.Fatal(err)
	}
	if caps := names.Capabilities(); hasCapability(caps, CapabilityChurnable) {
		t.Fatalf("species namerank capabilities %v report churn its model lacks", caps)
	}
}

// hasCapability reports whether caps contains name.
func hasCapability(caps []string, name string) bool {
	for _, c := range caps {
		if c == name {
			return true
		}
	}
	return false
}
