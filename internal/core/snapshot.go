// snapshot.go implements the Snapshotter capability: a point-in-time export
// of the population composition and the cumulative event counters, consumed
// by the public Observe hook and the tracing tools built on it.

package core

import "sspp/internal/sim"

// Protocol implements the full capability set of the run engine.
var (
	_ sim.Ranker      = (*Protocol)(nil)
	_ sim.SafeSetter  = (*Protocol)(nil)
	_ sim.Snapshotter = (*Protocol)(nil)
)

// SnapshotInto fills s with the current population composition: role
// counts, leader count, cumulative reset/top events and the safe-set flag.
// Interactions is left to the caller (the engine pre-fills it).
func (p *Protocol) SnapshotInto(s *sim.Snapshot) {
	s.Resetting, s.Ranking, s.Verifying = p.Roles()
	s.Leaders = p.Leaders()
	s.HardResets = p.dyn.events.Count(sim.EvHardReset)
	s.SoftResets = p.dyn.events.Count(sim.EvSoftReset)
	s.Tops = p.dyn.events.Count(sim.EvTop)
	s.InSafeSet = p.InSafeSet()
}
