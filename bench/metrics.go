package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root declares the same names, units and bounds;
// TestDeclaredMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks per-layer counts that repeat bit for bit for a given
	// seed, so -compare reports any change in them as changed work.
	exact bool
}

// endToEnd are the metrics a user of the simulator or of sppd sees; every
// workload reports all of them. An operation is one trial on the
// simulation workloads and one request on the sppd workloads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.15},
	{name: "op_ms.mean", unit: "ms", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer are the metrics of single layers that a -trace run reports,
// named after the module they time. README.md lists, for each, the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "rng.pair_ns", unit: "ns", better: "lower"},
	{name: "rng.uint64n_ns", unit: "ns", better: "lower"},

	{name: "core.interact_ns.rank", unit: "ns", better: "lower"},
	{name: "core.interact_ns.reset", unit: "ns", better: "lower"},
	{name: "core.interact_ns.rank_verify", unit: "ns", better: "lower"},
	{name: "core.interact_ns.verify_same", unit: "ns", better: "lower"},
	{name: "core.calls.rank", unit: "count", better: "lower", exact: true},
	{name: "core.calls.reset", unit: "count", better: "lower", exact: true},
	{name: "core.calls.rank_verify", unit: "count", better: "lower", exact: true},
	{name: "core.calls.verify_same", unit: "count", better: "lower", exact: true},
	{name: "core.calls.verify_cross", unit: "count", better: "lower", exact: true},
	{name: "core.insafeset_us.walk", unit: "us", better: "lower"},
	{name: "core.insafeset_ns.gate", unit: "ns", better: "lower"},
	{name: "core.polls.walk", unit: "count", better: "lower", exact: true},
	{name: "core.polls.gate", unit: "count", better: "lower", exact: true},

	{name: "ranking.interact_ns", unit: "ns", better: "lower"},
	{name: "detect.interact_ns", unit: "ns", better: "lower"},
	{name: "detect.coherent_us", unit: "us", better: "lower"},

	{name: "run.interactions", unit: "count", better: "lower", exact: true},
	{name: "run.span_coverage", unit: "ratio", better: "higher"},

	{name: "species.new_ms.elect", unit: "ms", better: "lower"},
	{name: "species.new_ms.ciw", unit: "ms", better: "lower"},
	{name: "species.step_ns.elect", unit: "ns", better: "lower"},
	{name: "species.step_ns.ciw", unit: "ns", better: "lower"},
	{name: "species.agent_step_ns.elect", unit: "ns", better: "lower"},

	{name: "ensemble.new_us", unit: "us", better: "lower"},
	{name: "ensemble.run_ms", unit: "ms", better: "lower"},
	{name: "ensemble.json_us", unit: "us", better: "lower"},

	{name: "serve.decode_us", unit: "us", better: "lower"},
	{name: "serve.cells_us", unit: "us", better: "lower"},
	{name: "serve.hash_us", unit: "us", better: "lower"},
	{name: "serve.warm_residual_us", unit: "us", better: "lower"},
	{name: "serve.response_bytes", unit: "B", better: "lower", exact: true},
	{name: "serve.computed", unit: "count", better: "lower", exact: true},
	{name: "serve.hit_ratio", unit: "ratio", better: "higher", exact: true},

	{name: "alloc.bytes_per_op", unit: "B", better: "lower"},
	{name: "alloc.objects_per_op", unit: "count", better: "lower"},
	{name: "gc.cycles_per_op", unit: "count", better: "lower"},
}
