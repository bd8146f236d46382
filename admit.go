// admit.go decides which resolved combinations the engine accepts. One
// function, admit, words every rejection of a protocol × backend × topology
// × use combination — the "rejected" rows of the capability tables
// (DESIGN.md §7, §9 and §10) — so New, NewEnsemble, System.Run,
// TrialRecording, Inject and InjectTransient reject a combination with one
// text however they reach it.

package sspp

import (
	"fmt"

	"sspp/internal/sim"
	"sspp/internal/workload"
)

// use says what a caller will do with a resolved system.
type use struct {
	start  bool // an adversarial start: Inject, or a Grid adversary class
	faults bool // injected faults: Inject, transient bursts, workload fault phases
	churn  bool // workload join and leave phases
	// transientK and workload are the Ensemble recovery modes
	// (Grid.TransientK, Grid.Workload).
	transientK, workload bool
	record               bool // pair or trace recording
	// replay marks a TrialRecording, which must replay through the public
	// API from the protocol seed and the schedule alone.
	replay bool
	// grid marks a plan that validates an Ensemble coordinate at the
	// protocol seed of seed index seed (see newPlan); admit ignores both.
	grid bool
	seed int
}

// admit reports whether the resolved cfg (see Resolve) may run protocol p
// for u. Before a build p is the registry's typed nil, after it the running
// protocol; capabilities are probed only through the sim.As* helpers. The
// fault and churn capability rows are worded by internal/workload, which
// validates compiled schedules against the same rows.
func admit(cfg Config, p sim.Protocol, u use) error {
	if cfg.Backend == BackendSpecies {
		if _, ok := sim.AsCompactable(p); !ok {
			if _, ok := sim.AsCountBased(p); !ok {
				return fmt.Errorf("sspp: protocol %q has no species form (missing the compactable capability)", cfg.Protocol)
			}
		}
		if cfg.SyntheticCoins {
			return fmt.Errorf("sspp: synthetic-coin mode has no species form "+
				"(the Appendix B coin state is per-agent identity) — protocol %q with synthetic coins needs Backend: %q",
				cfg.Protocol, BackendAgent)
		}
		if !cfg.Topology.IsComplete() {
			return fmt.Errorf("sspp: the species backend supports only the complete topology "+
				"(state-pair sampling has no agent adjacency; see the capability table, DESIGN.md §9) — "+
				"protocol %q with topology %q needs Backend: %q", cfg.Protocol, cfg.Topology.Name(), BackendAgent)
		}
		if u.start || u.faults {
			return fmt.Errorf("sspp: the species backend has no agent identities, so it supports neither adversarial starts "+
				"nor transient faults (protocol %q runs on it; see the capability table, DESIGN.md §7)", cfg.Protocol)
		}
		if u.record {
			return fmt.Errorf("sspp: recording requires the agent backend (the species backend draws state pairs in bulk, " +
				"so there are no agent pairs to record; record there, then replay on either backend)")
		}
	}
	if u.faults || u.churn {
		if err := workloadCaps(p, cfg.Protocol, false).Admit(u.faults, u.churn); err != nil {
			return err
		}
	}
	if !cfg.Topology.IsComplete() {
		if u.churn {
			return fmt.Errorf("sspp: churn requires the complete topology; topology %q does not support it (see the capability table, DESIGN.md §10)",
				cfg.Topology.Name())
		}
		if u.record {
			return fmt.Errorf("sspp: recording requires the complete topology; topology %q samples edge indices "+
				"(capture edge-indexed schedules with NewRecorder and archive them via Recording.Encode)", cfg.Topology.Name())
		}
	}
	if u.transientK && u.workload {
		return fmt.Errorf("sspp: ensemble grid sets both Workload and TransientK — express the burst as a workload phase (TransientBurst)")
	}
	if u.replay && (u.start || u.transientK || u.workload) {
		return fmt.Errorf("sspp: trial recording requires a clean start and no TransientK or Workload " +
			"(adversary classes and fault bursts draw from a stream the public replay cannot re-derive)")
	}
	return nil
}

// workloadCaps probes p's disruption capabilities. Churn bounds are read
// only when bounds is set, from a built protocol.
func workloadCaps(p sim.Protocol, name string, bounds bool) workload.Caps {
	caps := workload.Caps{Protocol: name}
	_, caps.Injectable = sim.AsInjectable(p)
	var ch sim.Churnable
	if ch, caps.Churnable = sim.AsChurnable(p); caps.Churnable && bounds {
		caps.MinN, caps.MaxN = ch.ChurnBounds()
	}
	return caps
}
