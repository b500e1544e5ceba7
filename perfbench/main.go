// Command perfbench is the repository's benchmark: simulator throughput
// on four workloads, with a separate traced run that splits the cost by
// layer. See README.md for the metrics, the workloads and how to read
// them; bash perfbench/run.sh builds and runs it from the repository
// root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it carry the
// run's provenance and its outputs (IPC and the architectural digest).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"
)

// Before the timed phase a run constructs its workload at least
// setupPasses times and for at least setupMin, so that a set-up of well
// under a millisecond still yields a steady median; it stops after
// setupMaxPasses, or after minIters passes once setupBudget has gone.
// setup_s is the median pass.
const (
	setupPasses    = 5
	setupMaxPasses = 1000
	setupMin       = 500 * time.Millisecond
	setupBudget    = 5 * time.Second
)

// minIters is the fewest iterations of each kind a run measures, however
// short --seconds is.
const minIters = 3

func main() {
	var (
		wl       = flag.String("workload", "", "workload to run: paper-grid, coherence-write, coherence-read or tables-all")
		seed     = flag.Int64("seed", 1, "seed of every synthetic input stream")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		traced   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		describe = flag.Bool("describe", false, "print the BENCHMARK.json this benchmark implements and exit")
	)
	flag.Parse()
	if *describe {
		data, err := json.MarshalIndent(describeBenchmark(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	w, ok := workloadByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, have %d\n", *traced)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range []any{
		map[string]any{"provenance": provenance(*seed)},
		map[string]any{"outputs": out.outputs},
		map[string]any{"failures": out.failures},
		result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics},
	} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOutput is everything a run reports.
type runOutput struct {
	metrics           map[string]metricValue
	outputs           map[string]any
	failures          []string
	attempted, failed int
}

// tally counts one iteration's specs and checks into the run's totals.
func (o *runOutput) tally(r iterResult) {
	o.attempted += r.Specs + r.Checks
	o.failed += len(r.Failures)
	o.failures = append(o.failures, r.Failures...)
}

// check counts one run-level output check.
func (o *runOutput) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setup constructs the workload several times and returns each pass's
// process CPU time (and, traced, each pass's tracer).
func setup(w workload, seed int64, traced bool) ([]float64, []*tracer, error) {
	var secs []float64
	var trs []*tracer
	begin := time.Now()
	for i := 0; i < setupMaxPasses; i++ {
		spent := time.Since(begin)
		if i >= minIters && spent > setupBudget || i >= setupPasses && spent > setupMin {
			break
		}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		c0 := cpuSeconds()
		if err := w.Setup(seed, tr); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		secs = append(secs, cpuSeconds()-c0)
		trs = append(trs, tr)
	}
	return secs, trs, nil
}

// iterSample is one measured iteration.
type iterSample struct {
	res     iterResult
	wall    float64 // seconds
	cpu     float64 // process CPU seconds, user + system
	rssMB   float64 // peak resident set during the iteration
	mallocs uint64
	gcs     uint32
	gcNS    uint64
	tr      *tracer
}

// measure runs one iteration. Each starts from a collected heap with its
// memory returned to the OS and the peak-RSS mark reset, so its peak
// resident set is its own.
func measure(ctx context.Context, w workload, seed int64, tr *tracer) iterSample {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	start := time.Now()
	res := w.Iter(ctx, seed, tr)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return iterSample{
		rssMB:   peakRSSMB(),
		res:     res,
		wall:    wall,
		cpu:     cpu,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
		gcNS:    m1.PauseTotalNs - m0.PauseTotalNs,
		tr:      tr,
	}
}

func run(w workload, seed int64, window time.Duration, traced bool) (runOutput, error) {
	ctx := context.Background()
	out := runOutput{metrics: map[string]metricValue{}}
	setupSecs, setupTrs, err := setup(w, seed, traced)
	if err != nil {
		return out, err
	}

	var plain, withTrace []iterSample
	start := time.Now()
	for time.Since(start) < window || len(plain) < minIters || (traced && len(withTrace) < minIters) {
		s := measure(ctx, w, seed, nil)
		out.tally(s.res)
		plain = append(plain, s)
		if traced {
			t := measure(ctx, w, seed, newTracer())
			out.tally(t.res)
			withTrace = append(withTrace, t)
		}
	}

	// Every iteration simulates the same inputs, so every digest must
	// match the first — and with tracing on, tracing must not change it.
	ref := plain[0].res
	for i, s := range slices.Concat(plain[1:], withTrace) {
		out.check(s.res.Digest == ref.Digest, "iteration %d: arch digest %s differs from %s", i+1, s.res.Digest, ref.Digest)
		if w.Name == wlTablesAll {
			out.check(fmt.Sprint(s.res.Texts) == fmt.Sprint(ref.Texts), "iteration %d: experiment text hashes differ", i+1)
		}
	}
	ipc := 0.0
	if ref.Cycles > 0 {
		ipc = float64(ref.Committed) / float64(ref.Cycles)
	}
	out.outputs = map[string]any{
		"workload":    w.Name,
		"seed":        seed,
		"seeded":      w.Seeded,
		"ipc":         ipc,
		"arch_digest": ref.Digest,
		"committed":   ref.Committed,
		"cycles":      ref.Cycles,
		"iterations":  len(plain) + len(withTrace),
		"iter_wall_s": collect(plain, func(s iterSample) float64 { return s.wall }),
		"iter_cpu_s":  collect(plain, func(s iterSample) float64 { return s.cpu }),
	}
	if w.Name == wlTablesAll {
		out.outputs["experiment_text_hashes"] = ref.Texts
		out.outputs["engine_sims"] = ref.Misses
		out.outputs["engine_cache_hits"] = ref.Hits
	}

	if !traced {
		endToEndMetrics(&out, plain, median(setupSecs))
		return out, nil
	}
	in, err := w.Replay(seed)
	if err != nil {
		return out, fmt.Errorf("%s replay inputs: %w", w.Name, err)
	}
	rep := runReplays(in)
	out.attempted += rep.Checks
	out.failed += len(rep.Failures)
	out.failures = append(out.failures, rep.Failures...)
	layerMetrics(&out, plain, withTrace, setupTrs, rep)
	return out, nil
}

// collect lists one value per iteration, in run order.
func collect(iters []iterSample, f func(iterSample) float64) []float64 {
	var out []float64
	for _, s := range iters {
		out = append(out, f(s))
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (o *runOutput) set(name, unit string, v float64) {
	o.metrics[name] = metricValue{Value: v, Unit: unit}
}

// endToEndMetrics reports the medians over the timed iterations. Rates
// are per process CPU second: on a shared host, time the hypervisor
// steals from the process stretches wall time but not CPU time.
func endToEndMetrics(o *runOutput, iters []iterSample, setupS float64) {
	med := func(f func(iterSample) float64) float64 { return median(collect(iters, f)) }
	o.set("wall_s", "s", med(func(s iterSample) float64 { return s.wall }))
	o.set("instrs_per_s", "1/s", med(func(s iterSample) float64 { return float64(s.res.Committed) / s.cpu }))
	o.set("cycles_per_s", "1/s", med(func(s iterSample) float64 { return float64(s.res.Cycles) / s.cpu }))
	o.set("allocs_per_instr", "1/instr", med(func(s iterSample) float64 { return float64(s.mallocs) / float64(max(s.res.Committed, 1)) }))
	o.set("setup_s", "s", setupS)
	o.set("peak_rss_mb", "MB", med(func(s iterSample) float64 { return s.rssMB }))
}

// perKinstr scales a count to events per thousand committed instructions.
func perKinstr(n, committed int64) float64 {
	if committed == 0 {
		return 0
	}
	return float64(n) * 1000 / float64(committed)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reports the per-layer metrics: times are medians over the
// traced iterations (set-up times over the traced set-up passes), counts
// come from the simulator's own statistics and repeat exactly.
func layerMetrics(o *runOutput, plain, traced []iterSample, setupTrs []*tracer, rep replayResult) {
	var build, newS []float64
	for _, tr := range setupTrs {
		build = append(build, tr.total("workloads.build").Seconds())
		newS = append(newS, tr.total("pipeline.new").Seconds())
	}
	o.set("workloads.build_s", "s", median(build))
	o.set("pipeline.new_s", "s", median(newS))

	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, s := range traced {
		emu, syn := s.tr.frontend("emu"), s.tr.frontend("synth")
		add("emu.self_s", float64(emu.NS)/1e9)
		add("emu.ns_per_record", ratio(float64(emu.NS), float64(emu.Records)))
		add("emu.share", ratio(float64(emu.NS)/1e9, s.wall))
		add("synth.self_s", float64(syn.NS)/1e9)
		add("synth.ns_per_record", ratio(float64(syn.NS), float64(syn.Records)))
		add("synth.share", ratio(float64(syn.NS)/1e9, s.wall))
		kernel := max(s.tr.total("pipeline.run").Nanoseconds()-emu.NS-syn.NS, 0)
		add("pipeline.self_s", float64(kernel)/1e9)
		add("pipeline.ns_per_cycle", ratio(float64(kernel), float64(s.res.Cycles)))
		add("experiments.single.wall_s", s.tr.total("experiments.single").Seconds())
		add("experiments.smt.wall_s", s.tr.total("experiments.smt").Seconds())
		add("experiments.multicore.wall_s", s.tr.total("experiments.multicore").Seconds())
		add("runtime.gc_cycles", float64(s.gcs))
		add("runtime.gc_pause_s", float64(s.gcNS)/1e9)
		add("bench.unattributed_s", max(s.wall-s.tr.spanned().Seconds(), 0))
	}
	for name, xs := range series {
		o.set(name, unitOf(name), median(xs))
	}
	wall := func(s iterSample) float64 { return s.wall }
	o.set("tracing.overhead_share", "ratio", ratio(median(collect(traced, wall)), median(collect(plain, wall)))-1)

	// Architectural counts: identical in every iteration, so the first
	// traced one speaks for all.
	r := traced[0].res
	a := r.Agg
	c := a.Committed
	o.set("pipeline.exec_per_commit", "ratio", ratio(float64(a.Issued), float64(c)))
	o.set("pipeline.mispredicts_per_kinstr", "1/kinstr", perKinstr(a.Mispredicts, c))
	o.set("pipeline.mem_squashed_per_kinstr", "1/kinstr", perKinstr(a.SquashedByMem, c))
	o.set("pipeline.rob_stalls_per_kinstr", "1/kinstr", perKinstr(a.ROBStalls, c))
	o.set("pipeline.sb_stalls_per_kinstr", "1/kinstr", perKinstr(a.CommitSBStalls, c))
	o.set("core.rename_stalls_per_kinstr", "1/kinstr", perKinstr(a.RenameRegStall, c))
	o.set("core.issue_blocks_per_kinstr", "1/kinstr", perKinstr(a.IssueBlocks, c))
	o.set("core.reexec_per_kinstr", "1/kinstr", perKinstr(a.Reexecutions, c))
	for _, s := range schemes {
		o.set("core."+s.String()+".replay_ns_per_instr", "ns", rep.CoreNS[s])
	}
	o.set("mem.l1_miss_ratio", "ratio", ratio(float64(a.CacheMisses+a.CacheMergedMiss), float64(a.CacheAccesses)))
	o.set("mem.mshr_stall_cycles_per_kinstr", "1/kinstr", perKinstr(a.MSHRStallCycles, c))
	o.set("mem.l2_miss_ratio", "ratio", ratio(float64(a.L2Misses), float64(a.L2Fetches)))
	o.set("mem.l2_merges_per_kinstr", "1/kinstr", perKinstr(a.L2Merges, c))
	o.set("mem.l2_conflicts_per_kinstr", "1/kinstr", perKinstr(a.L2Conflicts, c))
	o.set("mem.l2_invalidations_per_kinstr", "1/kinstr", perKinstr(a.L2Invalidations, c))
	o.set("mem.l2_upgrades_per_kinstr", "1/kinstr", perKinstr(a.L2Upgrades, c))
	o.set("mem.l2_writeback_forwards_per_kinstr", "1/kinstr", perKinstr(a.L2WritebackForwards, c))
	o.set("mem.silent_upgrades_per_kinstr", "1/kinstr", perKinstr(a.SilentUpgrades, c))
	o.set("mem.replay_ns_per_access", "ns", rep.MemNS)
	o.set("engine.sims", "count", float64(r.Misses))
	o.set("engine.cache_hits", "count", float64(r.Hits))
	o.set("engine.cache_hit_ratio", "ratio", ratio(float64(r.Hits), float64(r.Hits+r.Misses)))
}

func unitOf(name string) string {
	for _, l := range perLayer {
		if l.Name == name {
			return l.Unit
		}
	}
	return ""
}
