// compact_test.go property-tests ElectLeader_r's species form against the
// agent-level implementation it must mirror, the same way the baselines are
// tested (internal/baseline/compact_test.go): the same recorded schedule is
// applied to both representations, and the species multiset must equal the
// reference multiset of agent states exactly — not statistically — at every
// checkpoint. The mirror is bit-for-bit because the compact model consumes
// the template instance's protocol PRNG (see compact.go): two same-seeded
// instances driven through identical state pairs draw identical randomness.

package core

import (
	"testing"

	"sspp/internal/rng"
	"sspp/internal/sim"
	"sspp/internal/species"
)

const (
	mirrorSteps = 100_000
	mirrorEvery = 5_000
)

// compareCounts requires the species multiset to equal the reference
// multiset of agent states, related through the model's intern table.
func compareCounts(t *testing.T, step int, p *Protocol, sp *species.System, m *compactModel) {
	t.Helper()
	ref := make(map[uint64]int64, p.n)
	for i := range p.agents {
		ref[m.keyOf(&p.agents[i])]++
	}
	if sp.Occupied() != len(ref) {
		t.Fatalf("interaction %d: species occupies %d states, reference %d", step, sp.Occupied(), len(ref))
	}
	var sum int64
	sp.Each(func(key uint64, c int64) bool {
		if ref[key] != c {
			t.Fatalf("interaction %d: state %#x count %d, reference %d", step, key, c, ref[key])
		}
		sum += c
		return true
	})
	if sum != int64(p.n) {
		t.Fatalf("interaction %d: species counts sum to %d, want n=%d", step, sum, p.n)
	}
}

// TestElectLeaderSpeciesMirrorsAgentLevel: 10⁵ recorded interactions applied
// to an agent-level instance and to a species run of a same-seeded
// instance's compact model leave identical multisets at every checkpoint,
// and replaying the recording reproduces the agent-level run exactly.
func TestElectLeaderSpeciesMirrorsAgentLevel(t *testing.T) {
	const (
		n    = 256
		r    = 16
		seed = 42
	)
	agent, err := New(n, r, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	template, err := New(n, r, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	m := newCompactModel(template)
	sp, err := species.NewSystem(m.model(template), 1)
	if err != nil {
		t.Fatal(err)
	}

	rec := sim.NewRecorder(rng.New(77))
	for i := 0; i < mirrorSteps; i++ {
		a, b := rec.Pair(n)
		// keyOf reads the pre-interaction agent states; a state held by a
		// live agent is occupied on the species side too, so its intern
		// entry cannot have been released.
		if err := sp.ApplyPair(m.keyOf(&agent.agents[a]), m.keyOf(&agent.agents[b])); err != nil {
			t.Fatalf("interaction %d (%d, %d): %v", i, a, b, err)
		}
		agent.Interact(a, b)
		if (i+1)%mirrorEvery == 0 {
			compareCounts(t, i+1, agent, sp, m)
			if err := sp.SelfCheck(); err != nil {
				t.Fatalf("interaction %d: %v", i+1, err)
			}
		}
	}
	compareCounts(t, mirrorSteps, agent, sp, m)
	if err := sp.SelfCheck(); err != nil {
		t.Fatal(err)
	}

	// The intern table must stay bounded by the occupied-state count plus
	// the two transients of the last interaction — the Release hook at work.
	if live := len(m.tab) - len(m.free); live > sp.Occupied()+2 {
		t.Fatalf("intern table holds %d live entries for %d occupied states", live, sp.Occupied())
	}

	// Replay the captured schedule into a fresh instance: the exact final
	// configuration must come back (the reproducibility contract the mirror
	// test itself rests on).
	replayed, err := New(n, r, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	sim.Steps(replayed, rec.Recording().Replay(), mirrorSteps)
	var want, got []byte
	for i := 0; i < n; i++ {
		want = appendAgentKey(want[:0], &agent.agents[i])
		got = appendAgentKey(got[:0], &replayed.agents[i])
		if string(want) != string(got) {
			t.Fatalf("replay diverged at agent %d", i)
		}
	}
}

// TestCompactModelReleaseRecyclesKeys pins the intern-table lifecycle: a
// clean start interns one state for the whole population, released keys are
// recycled for the next fresh state, and a released encoding is genuinely
// forgotten (re-interning it mints a live entry again).
func TestCompactModelReleaseRecyclesKeys(t *testing.T) {
	p, err := New(64, 8, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	m := newCompactModel(p)
	keys, counts := m.model(p).Init()
	if len(keys) != 1 || counts[0] != 64 {
		t.Fatalf("clean start interned %d states (counts %v), want the single fresh-ranker state × 64", len(keys), counts)
	}

	var a Agent
	m.dyn.copyAgentInto(&a, &p.agents[0])
	a.Countdown--
	k1 := m.keyOf(&a)
	if k1 == keys[0] {
		t.Fatal("distinct states interned to the same key")
	}
	if m.keyOf(&a) != k1 {
		t.Fatal("re-interning an identical state minted a new key")
	}

	m.release(k1)
	if _, _, ok := m.probe(&a); ok {
		t.Fatal("release left the released encoding filed: probing it still hits")
	}
	if _, ok := m.index.find(m.hashes[k1], func(id uint64) bool { return id == k1 }); ok {
		t.Fatal("release left the key filed in the index")
	}
	if live := m.index.live; live != 1 {
		t.Fatalf("index holds %d live entries after the release, want 1 (the clean state)", live)
	}
	a.Countdown--
	if k2 := m.keyOf(&a); k2 != k1 {
		t.Fatalf("fresh state got key %d, want the recycled %d", k2, k1)
	}
	// Double release must be a no-op (the engine may reap a key that a
	// later delta in the same event already re-populated and re-emptied).
	m.release(k1)
	m.release(k1)
	if got := len(m.free); got != 1 {
		t.Fatalf("free list holds %d keys after double release, want 1", got)
	}
}

// TestCompactCleanMirrorsCompact pins the clean-start constructor against
// the instance-backed one at matched seeds: both forms must intern the same
// single clean-ranker configuration and, driven through the identical
// recorded schedule, leave bit-identical multisets (same counts under the
// same canonical encodings) at every checkpoint — the equivalence that lets
// System skip the O(n·r) agent-instance transient on species builds.
func TestCompactCleanMirrorsCompact(t *testing.T) {
	const (
		n    = 256
		r    = 16
		seed = 42
	)
	template, err := New(n, r, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	oldM := newCompactModel(template)
	oldSp, err := species.NewSystem(oldM.model(template), 1)
	if err != nil {
		t.Fatal(err)
	}
	cleanM, err := newCleanCompactModel(n, r, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	cleanModel := cleanM.cleanModel()
	newSp, err := species.NewSystem(cleanModel, 1)
	if err != nil {
		t.Fatal(err)
	}

	keys, counts := cleanModel.Init()
	if len(keys) != 1 || counts[0] != n {
		t.Fatalf("clean start interned %d states (counts %v), want the single fresh-ranker state × %d", len(keys), counts, n)
	}

	// Drive both species systems through the same reference agent run: the
	// reference supplies the pair schedule as state keys, translated through
	// each model's own intern table. Canonical encodings must agree at every
	// checkpoint — the two tables may assign different numeric keys, so the
	// comparison goes through the names.
	ref, err := New(n, r, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	for i := 0; i < mirrorSteps; i++ {
		a := src.Intn(n)
		b := src.Intn(n - 1)
		if b >= a {
			b++
		}
		if err := oldSp.ApplyPair(oldM.keyOf(&ref.agents[a]), oldM.keyOf(&ref.agents[b])); err != nil {
			t.Fatalf("interaction %d (old form): %v", i, err)
		}
		if err := newSp.ApplyPair(cleanM.keyOf(&ref.agents[a]), cleanM.keyOf(&ref.agents[b])); err != nil {
			t.Fatalf("interaction %d (clean form): %v", i, err)
		}
		ref.Interact(a, b)
		if (i+1)%mirrorEvery == 0 {
			compareCounts(t, i+1, ref, oldSp, oldM)
			compareCounts(t, i+1, ref, newSp, cleanM)
		}
	}
	compareCounts(t, mirrorSteps, ref, oldSp, oldM)
	compareCounts(t, mirrorSteps, ref, newSp, cleanM)
}

// TestCompactCleanRefusesSyntheticCoins pins the capability boundary for the
// clean-start constructor, mirroring TestCompactRefusesSyntheticCoins.
func TestCompactCleanRefusesSyntheticCoins(t *testing.T) {
	if _, err := CompactClean(32, 4, WithSyntheticCoins()); err == nil {
		t.Fatal("CompactClean accepted synthetic-coin mode")
	}
}

// TestCompactRefusesSyntheticCoins pins the capability boundary: the
// Appendix B coin state is per-agent identity, so synthetic-mode instances
// must not silently compact.
func TestCompactRefusesSyntheticCoins(t *testing.T) {
	p, err := New(32, 4, WithSyntheticCoins())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Compact() accepted a synthetic-coin instance")
		}
	}()
	p.Compact()
}
