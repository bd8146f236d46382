// adversary.go exposes the adversarial starting-configuration classes
// (DESIGN.md §5, internal/adversary) and the mid-run transient-fault model.
// Self-stabilization (Theorem 1.1) promises recovery from any of them.

package sspp

import (
	"fmt"

	"sspp/internal/adversary"
	"sspp/internal/rng"
	"sspp/internal/sim"
)

// Adversary identifies an adversarial starting-configuration class; see
// AdversaryClasses for the full list and Inject to apply one.
type Adversary string

// The adversary classes (DESIGN.md §5, internal/adversary).
const (
	AdversaryCleanRankers      = Adversary(adversary.ClassCleanRankers)
	AdversaryTriggered         = Adversary(adversary.ClassTriggered)
	AdversaryMixedRoles        = Adversary(adversary.ClassMixedRoles)
	AdversaryStuckRankers      = Adversary(adversary.ClassStuckRankers)
	AdversaryMixedGenerations  = Adversary(adversary.ClassMixedGenerations)
	AdversaryProbationSkew     = Adversary(adversary.ClassProbationSkew)
	AdversaryTwoLeaders        = Adversary(adversary.ClassTwoLeaders)
	AdversaryNoLeader          = Adversary(adversary.ClassNoLeader)
	AdversaryDuplicateRanks    = Adversary(adversary.ClassDuplicateRanks)
	AdversaryCorruptMessages   = Adversary(adversary.ClassCorruptMessages)
	AdversaryDuplicateMessages = Adversary(adversary.ClassDuplicateMessages)
	AdversaryRandomGarbage     = Adversary(adversary.ClassRandomGarbage)
)

// AdversaryClasses returns every supported adversary class.
func AdversaryClasses() []Adversary {
	classes := adversary.Classes()
	out := make([]Adversary, len(classes))
	for i, c := range classes {
		out[i] = Adversary(c)
	}
	return out
}

// DescribeAdversary returns a one-line description of the class.
func DescribeAdversary(a Adversary) string {
	return adversary.Describe(adversary.Class(a))
}

// RankingPreserved reports whether recovery from the class must keep the
// initial ranking intact (zero hard resets) — true exactly for the classes
// whose ranking is correct and whose faults live only in the message layer
// (the §3.2 soft-reset guarantee).
func RankingPreserved(a Adversary) bool {
	return adversary.ExpectsRankingPreserved(adversary.Class(a))
}

// Inject rewrites the current configuration according to the adversary
// class, using seed for any random choices the class needs. It dispatches
// on the protocol's injectable capability: protocols without it (namerank,
// fastle, most custom protocols) report an error, and protocols with it
// reject classes that are not realizable in their state space.
func (s *System) Inject(a Adversary, seed uint64) error {
	return s.injectWith(a, rng.New(seed))
}

// injectWith is Inject against a caller-owned randomness stream, used by
// the Ensemble layer so trial randomness stays pre-derived.
func (s *System) injectWith(a Adversary, src *rng.PRNG) error {
	if err := admit(s.cfg, s.proto, use{start: true, faults: true}); err != nil {
		return err
	}
	inj, _ := sim.AsInjectable(s.proto)
	return inj.Inject(string(a), src)
}

// InjectTransient corrupts k uniformly chosen agents in place with random
// type-valid states (rank claims, resets, scrambled timers, corrupted
// messages), leaving the rest of the population untouched — the mid-run
// transient-fault model that motivates self-stabilization. It returns the
// victim indices. The population recovers on its own (experiment T14); see
// also the InjectTransientAt run option for faults scheduled inside a Run.
// Protocols without the injectable capability return an error (they used to
// silently no-op, which made a mis-typed protocol name look fault-tolerant),
// and so does a negative k on every protocol; k = 0 corrupts nobody.
func (s *System) InjectTransient(k int, seed uint64) ([]int, error) {
	return s.injectTransientWith(k, rng.New(seed))
}

// injectTransientWith is InjectTransient against a caller-owned randomness
// stream.
func (s *System) injectTransientWith(k int, src *rng.PRNG) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("sspp: transient burst size %d < 0", k)
	}
	if err := admit(s.cfg, s.proto, use{faults: true}); err != nil {
		return nil, err
	}
	inj, _ := sim.AsInjectable(s.proto)
	return inj.InjectTransient(k, src), nil
}
