package main

// The metric registry: every metric the benchmark prints, with its unit,
// the direction that counts as better and — for the per-layer metrics —
// the end-to-end metric it should move and on which workloads. The
// registry is the single source of BENCHMARK.json's metric lists
// (--describe prints the file) and of the tests that keep the two in
// step.

// metricDef describes one end-to-end metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef describes one per-layer metric and the end-to-end metric it
// should move: Moves names end-to-end metrics, On the workloads where the
// move shows, FlatOn the workloads where it should not change.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Moves  []string
	On     []string
	FlatOn []string
}

// Workload names.
const (
	wlPaperGrid      = "paper-grid"
	wlCoherenceWrite = "coherence-write"
	wlCoherenceRead  = "coherence-read"
	wlTablesAll      = "tables-all"
)

var (
	allWorkloads = []string{wlPaperGrid, wlCoherenceWrite, wlCoherenceRead, wlTablesAll}
	coherenceWLs = []string{wlCoherenceWrite, wlCoherenceRead}
	directWLs    = []string{wlPaperGrid, wlCoherenceWrite, wlCoherenceRead}
)

// endToEnd lists the metrics a user of the simulator sees. Bounds are
// the share of the parent's median by which a metric may worsen before
// a change counts as a regression. They are wide because the benchmark
// runs on shared virtual machines (README.md, "Bounds").
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"instrs_per_s", "1/s", "higher", 0.25},
	{"cycles_per_s", "1/s", "higher", 0.25},
	{"allocs_per_instr", "1/instr", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer lists the traced run's metrics, grouped by module.
var perLayer = []layerDef{
	{"emu.self_s", "s", "lower", []string{"instrs_per_s", "wall_s"}, []string{wlPaperGrid, wlTablesAll}, coherenceWLs},
	{"emu.ns_per_record", "ns", "lower", []string{"instrs_per_s", "wall_s"}, []string{wlPaperGrid, wlTablesAll}, coherenceWLs},
	{"emu.share", "ratio", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, coherenceWLs},

	{"synth.self_s", "s", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},
	{"synth.ns_per_record", "ns", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},
	{"synth.share", "ratio", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},

	{"workloads.build_s", "s", "lower", []string{"wall_s", "setup_s"}, []string{wlTablesAll}, []string{wlPaperGrid}},
	{"pipeline.new_s", "s", "lower", []string{"wall_s", "setup_s"}, []string{wlTablesAll}, []string{wlPaperGrid}},

	{"pipeline.self_s", "s", "lower", []string{"instrs_per_s", "cycles_per_s"}, directWLs, nil},
	{"pipeline.ns_per_cycle", "ns", "lower", []string{"instrs_per_s", "cycles_per_s"}, directWLs, nil},
	{"pipeline.exec_per_commit", "ratio", "lower", []string{"instrs_per_s"}, directWLs, nil},
	{"pipeline.mispredicts_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, directWLs, nil},
	{"pipeline.mem_squashed_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, directWLs, nil},
	{"pipeline.rob_stalls_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, directWLs, nil},
	{"pipeline.sb_stalls_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, directWLs, nil},

	{"core.rename_stalls_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, []string{wlTablesAll}},
	{"core.issue_blocks_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, []string{wlTablesAll}},
	{"core.reexec_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, []string{wlTablesAll}},
	{"core.conv.replay_ns_per_instr", "ns", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, []string{wlTablesAll}},
	{"core.vp-wb.replay_ns_per_instr", "ns", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, []string{wlTablesAll}},
	{"core.vp-issue.replay_ns_per_instr", "ns", "lower", []string{"instrs_per_s"}, []string{wlPaperGrid}, []string{wlTablesAll}},

	{"mem.l1_miss_ratio", "ratio", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},
	{"mem.mshr_stall_cycles_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},
	{"mem.l2_miss_ratio", "ratio", "lower", []string{"instrs_per_s"}, []string{wlCoherenceRead}, []string{wlPaperGrid}},
	{"mem.l2_merges_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlCoherenceRead}, []string{wlPaperGrid}},
	{"mem.l2_conflicts_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},
	{"mem.l2_invalidations_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlCoherenceWrite}, []string{wlPaperGrid}},
	{"mem.l2_upgrades_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlCoherenceWrite}, []string{wlPaperGrid}},
	{"mem.l2_writeback_forwards_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlCoherenceWrite}, []string{wlPaperGrid}},
	{"mem.silent_upgrades_per_kinstr", "1/kinstr", "lower", []string{"instrs_per_s"}, []string{wlCoherenceRead}, []string{wlPaperGrid}},
	{"mem.replay_ns_per_access", "ns", "lower", []string{"instrs_per_s"}, coherenceWLs, []string{wlPaperGrid}},

	{"engine.sims", "count", "lower", []string{"wall_s"}, []string{wlTablesAll}, directWLs},
	{"engine.cache_hits", "count", "higher", []string{"wall_s"}, []string{wlTablesAll}, directWLs},
	{"engine.cache_hit_ratio", "ratio", "higher", []string{"wall_s"}, []string{wlTablesAll}, directWLs},
	{"experiments.single.wall_s", "s", "lower", []string{"wall_s"}, []string{wlTablesAll}, directWLs},
	{"experiments.smt.wall_s", "s", "lower", []string{"wall_s"}, []string{wlTablesAll}, directWLs},
	{"experiments.multicore.wall_s", "s", "lower", []string{"wall_s"}, []string{wlTablesAll}, directWLs},

	{"runtime.gc_cycles", "count", "lower", []string{"allocs_per_instr", "peak_rss_mb"}, allWorkloads, nil},
	{"runtime.gc_pause_s", "s", "lower", []string{"allocs_per_instr", "peak_rss_mb"}, allWorkloads, nil},

	{"tracing.overhead_share", "ratio", "lower", []string{"wall_s"}, allWorkloads, nil},
	{"bench.unattributed_s", "s", "lower", []string{"wall_s"}, allWorkloads, nil},
}
