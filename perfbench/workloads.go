package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Simulation budgets. paper-grid runs long specs so the kernel dominates;
// tables-all runs short ones so per-spec set-up, the engine pool and the
// result cache matter, as they do for `vptables -exp all`.
const (
	paperInstr     = 40_000 // per spec: 9 kernels × 3 schemes
	coherenceCores = 4
	coherenceInstr = 50_000 // per core
	tablesInstr    = 4_000  // per simulation (experiments.Options.Instr)
)

var schemes = []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue}

// iterResult is the outcome of one iteration of a workload: the work it
// did, the deterministic digest of its outputs, and the output checks it
// ran.
type iterResult struct {
	Committed, Cycles int64
	Specs             int      // simulation points attempted
	Checks            int      // output checks run (besides the specs)
	Failures          []string // failed specs and checks, described
	Agg               pipeline.Stats

	// Digest hashes the architectural outputs (Stats.Arch() of every
	// spec, or every experiment's rendered text) in a fixed order;
	// Texts holds tables-all's per-experiment text hashes.
	Digest string
	Texts  []string

	// Engine result cache, tables-all only.
	Hits, Misses int64
}

func (r *iterResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check counts one output check and records a failure when ok is false.
func (r *iterResult) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.failf(format, args...)
	}
}

// workload is one benchmark workload: a set-up pass that constructs
// everything an iteration simulates, the iteration itself, and the
// inputs of its layer replays. Every function takes the tracer; a nil
// tracer is the timed (untraced) path.
type workload struct {
	Name   string
	Why    string
	Seeded bool
	Setup  func(seed int64, tr *tracer) error
	Iter   func(ctx context.Context, seed int64, tr *tracer) iterResult
	Replay func(seed int64) (replayInputs, error)
}

var benchWorkloads = []workload{
	{
		Name:   wlPaperGrid,
		Why:    "all 9 catalog kernels x conv/vp-wb/vp-issue on the paper's single-core machine: the pipeline kernel, core renamer and emu frontend",
		Setup:  paperSetup,
		Iter:   paperIter,
		Replay: catalogReplay,
	},
	{
		Name:   wlCoherenceWrite,
		Why:    "4 lockstep cores on the store-heavy sharing stream under MSI: the mem invalidation, upgrade and write-back-forward path",
		Seeded: true,
		Setup:  func(seed int64, tr *tracer) error { return coherenceSetup(coherenceWriteSpec(seed), tr) },
		Iter: func(ctx context.Context, seed int64, tr *tracer) iterResult {
			return coherenceIter(coherenceWriteSpec(seed), tr)
		},
		Replay: func(seed int64) (replayInputs, error) { return coherenceReplay(coherenceWriteSpec(seed)) },
	},
	{
		Name:   wlCoherenceRead,
		Why:    "4 lockstep cores on the read-dominant producer-consumer stream (3x the L1) under MESI: L2 refills, merges and E grants",
		Seeded: true,
		Setup:  func(seed int64, tr *tracer) error { return coherenceSetup(coherenceReadSpec(seed), tr) },
		Iter: func(ctx context.Context, seed int64, tr *tracer) iterResult {
			return coherenceIter(coherenceReadSpec(seed), tr)
		},
		Replay: func(seed int64) (replayInputs, error) { return coherenceReplay(coherenceReadSpec(seed)) },
	},
	{
		Name:   wlTablesAll,
		Why:    "every registry experiment through one cached engine at nproc workers with short budgets: per-spec set-up, engine pool, result cache",
		Setup:  tablesSetup,
		Iter:   tablesIter,
		Replay: catalogReplay,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// archDigest hashes the architectural view of a sequence of Stats.
type archDigest struct{ h [sha256.Size]byte }

func (d *archDigest) add(st pipeline.Stats) {
	d.h = sha256.Sum256(fmt.Appendf(d.h[:], "%#v", st.Arch()))
}

func (d *archDigest) addText(s string) {
	d.h = sha256.Sum256(append(d.h[:], s...))
}

func (d *archDigest) String() string { return hex.EncodeToString(d.h[:8]) }

// addCounts folds the counters the per-layer metrics read into agg.
// Cycles add up across specs: they are the simulated cycles the host
// had to step.
func addCounts(agg *pipeline.Stats, st pipeline.Stats) {
	agg.Cycles += st.Cycles
	agg.Committed += st.Committed
	agg.Issued += st.Issued
	agg.Reexecutions += st.Reexecutions
	agg.IssueBlocks += st.IssueBlocks
	agg.RenameRegStall += st.RenameRegStall
	agg.ROBStalls += st.ROBStalls
	agg.Mispredicts += st.Mispredicts
	agg.SquashedByMem += st.SquashedByMem
	agg.CommitSBStalls += st.CommitSBStalls
	agg.CacheAccesses += st.CacheAccesses
	agg.CacheMisses += st.CacheMisses
	agg.CacheMergedMiss += st.CacheMergedMiss
	agg.MSHRStallCycles += st.MSHRStallCycles
	agg.L2Fetches += st.L2Fetches
	agg.L2Misses += st.L2Misses
	agg.L2Merges += st.L2Merges
	agg.L2Conflicts += st.L2Conflicts
	agg.L2Invalidations += st.L2Invalidations
	agg.L2Upgrades += st.L2Upgrades
	agg.L2WritebackForwards += st.L2WritebackForwards
	agg.SilentUpgrades += st.SilentUpgrades
}

// --- paper-grid ---------------------------------------------------------------

type paperSpec struct {
	kernel workloads.Spec
	cfg    pipeline.Config
}

func paperSpecs() []paperSpec {
	var out []paperSpec
	for _, k := range workloads.Catalog() {
		for _, s := range schemes {
			cfg := pipeline.DefaultConfig()
			cfg.Scheme = s
			out = append(out, paperSpec{k, cfg})
		}
	}
	return out
}

// buildSingle constructs one single-core simulator the way sim.Run does:
// the kernel's emulator-backed generator, capped at budget, under the
// pipeline.
func buildSingle(k workloads.Spec, cfg pipeline.Config, budget int64, tr *tracer) (*pipeline.Sim, error) {
	b := tr.begin("workloads.build")
	gen, err := k.NewGen()
	tr.end(b)
	if err != nil {
		return nil, err
	}
	n := tr.begin("pipeline.new")
	s, err := pipeline.New(cfg, trace.Take(tr.wrap("emu", gen), budget))
	tr.end(n)
	return s, err
}

func paperSetup(_ int64, tr *tracer) error {
	for _, ps := range paperSpecs() {
		if _, err := buildSingle(ps.kernel, ps.cfg, paperInstr, tr); err != nil {
			return fmt.Errorf("%s/%v: %w", ps.kernel.Name, ps.cfg.Scheme, err)
		}
	}
	return nil
}

func paperIter(_ context.Context, _ int64, tr *tracer) iterResult {
	var res iterResult
	var d archDigest
	for _, ps := range paperSpecs() {
		res.Specs++
		s, err := buildSingle(ps.kernel, ps.cfg, paperInstr, tr)
		if err != nil {
			res.failf("%s/%v: %v", ps.kernel.Name, ps.cfg.Scheme, err)
			continue
		}
		r := tr.begin("pipeline.run")
		st, err := s.Run(0)
		tr.end(r)
		if err != nil {
			res.failf("%s/%v: %v", ps.kernel.Name, ps.cfg.Scheme, err)
			continue
		}
		if st.Committed != paperInstr {
			res.failf("%s/%v committed %d, budget %d", ps.kernel.Name, ps.cfg.Scheme, st.Committed, int64(paperInstr))
		}
		res.Committed += st.Committed
		addCounts(&res.Agg, st)
		d.add(st)
	}
	res.Cycles = res.Agg.Cycles
	res.Digest = d.String()
	return res
}

// --- coherence-write / coherence-read -----------------------------------------

type coherenceSpec struct {
	params   synth.Params
	protocol string
	// invalidates marks a stream whose cores write shared lines, so a
	// run without L2 invalidations means the coherence path did not run.
	invalidates bool
}

func coherenceWriteSpec(seed int64) coherenceSpec {
	p := synth.Sharing()
	p.Seed = seed
	return coherenceSpec{p, "msi", true}
}

func coherenceReadSpec(seed int64) coherenceSpec {
	p := synth.ProducerConsumer()
	p.Seed = seed
	return coherenceSpec{p, "mesi", false}
}

func (c coherenceSpec) config() pipeline.MulticoreConfig {
	cfg := pipeline.DefaultMulticoreConfig(coherenceCores)
	cfg.SharedAddressSpace = true
	cfg.Coherence = true
	cfg.Protocol = c.protocol
	cfg.Directory = "fullmap"
	return cfg
}

// buildCoherence constructs the lockstep machine: every core runs the
// same seeded synthetic stream in one shared address space.
func buildCoherence(c coherenceSpec, tr *tracer) (*pipeline.Multicore, error) {
	gens := make([]trace.Generator, coherenceCores)
	for i := range gens {
		b := tr.begin("workloads.build")
		g := synth.New(c.params)
		tr.end(b)
		gens[i] = trace.Take(tr.wrap("synth", g), coherenceInstr)
	}
	n := tr.begin("pipeline.new")
	mc, err := pipeline.NewMulticore(c.config(), gens)
	tr.end(n)
	return mc, err
}

func coherenceSetup(c coherenceSpec, tr *tracer) error {
	_, err := buildCoherence(c, tr)
	return err
}

func coherenceIter(c coherenceSpec, tr *tracer) iterResult {
	res := iterResult{Specs: 1}
	mc, err := buildCoherence(c, tr)
	if err != nil {
		res.failf("build: %v", err)
		return res
	}
	r := tr.begin("pipeline.run")
	st, err := mc.Run(0)
	tr.end(r)
	if err != nil {
		res.failf("run: %v", err)
		return res
	}
	var d archDigest
	for i := 0; i < mc.Cores(); i++ {
		cs := mc.CoreStats(i)
		res.check(cs.Committed == coherenceInstr, "core %d committed %d, budget %d", i, cs.Committed, int64(coherenceInstr))
		d.add(cs)
	}
	d.add(st)
	if c.invalidates {
		res.check(st.L2Invalidations > 0, "no L2 invalidations on a write-sharing stream")
	}
	res.Committed, res.Cycles = st.Committed, st.Cycles
	addCounts(&res.Agg, st)
	res.Digest = d.String()
	return res
}

// --- tables-all ---------------------------------------------------------------

func tablesOptions() experiments.Options {
	return experiments.Options{Instr: tablesInstr}
}

// tablesSetup builds every registry experiment's plan and constructs the
// simulator for each distinct point without running it — the per-spec
// set-up the engine pays on every cache miss.
func tablesSetup(_ int64, tr *tracer) error {
	opts := tablesOptions()
	seen := map[string]bool{}
	distinct := func(spec any) bool {
		k := fmt.Sprintf("%#v", spec)
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	for _, exp := range experiments.Registry() {
		plan, err := exp.Build(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.Name, err)
		}
		for _, s := range plan.Specs {
			if !distinct(s) {
				continue
			}
			k, ok := workloads.ByName(s.Workload)
			if !ok {
				return fmt.Errorf("%s: unknown workload %q", exp.Name, s.Workload)
			}
			if _, err := buildSingle(k, s.Config, s.MaxInstr, tr); err != nil {
				return fmt.Errorf("%s: %w", exp.Name, err)
			}
		}
		for _, s := range plan.SMT {
			if !distinct(s) {
				continue
			}
			var gens []trace.Generator
			for _, name := range s.Workloads {
				b := tr.begin("workloads.build")
				gen, err := workloads.MustByName(name).NewGen()
				tr.end(b)
				if err != nil {
					return fmt.Errorf("%s: %w", exp.Name, err)
				}
				gens = append(gens, trace.Take(gen, s.MaxInstrPerThread))
			}
			n := tr.begin("pipeline.new")
			_, err := pipeline.NewSMT(s.Config, gens)
			tr.end(n)
			if err != nil {
				return fmt.Errorf("%s: %w", exp.Name, err)
			}
		}
		for _, s := range plan.Multicore {
			if !distinct(s) {
				continue
			}
			var gens []trace.Generator
			for _, name := range s.Workloads {
				b := tr.begin("workloads.build")
				gen, err := sim.MulticoreWorkloadGen(name)
				tr.end(b)
				if err != nil {
					return fmt.Errorf("%s: %w", exp.Name, err)
				}
				gens = append(gens, trace.Take(gen, s.MaxInstrPerCore))
			}
			n := tr.begin("pipeline.new")
			_, err := pipeline.NewMulticore(pipeline.MulticoreConfig{
				Cores:              len(gens),
				Core:               s.Config,
				L2:                 s.L2,
				SharedAddressSpace: s.SharedAddressSpace,
				Coherence:          s.Coherence,
				Protocol:           s.Protocol,
				Directory:          s.Directory,
				Step:               s.Step,
			}, gens)
			tr.end(n)
			if err != nil {
				return fmt.Errorf("%s: %w", exp.Name, err)
			}
		}
	}
	return nil
}

// tablesIter runs every registry experiment on one fresh engine, as
// `vptables -exp all` does through vpr.Engine.RunExperiment: the same
// internal engine and the same Experiment.Run/Render calls, with a
// checking Runner between the experiments and the engine.
func tablesIter(ctx context.Context, _ int64, tr *tracer) iterResult {
	var res iterResult
	eng := engine.New(engine.WithParallelism(runtime.NumCPU()))
	run := &checkingRunner{eng: eng, tr: tr, res: &res}
	opts := tablesOptions()
	var d archDigest
	for _, exp := range experiments.Registry() {
		v, err := exp.Run(ctx, run, opts)
		if err != nil {
			res.failf("%s: %v", exp.Name, err)
			continue
		}
		text := exp.Render(v)
		var th archDigest
		th.addText(text)
		res.Texts = append(res.Texts, exp.Name+"="+th.String())
		d.addText(text)
	}
	res.Hits, res.Misses = eng.CacheStats()
	res.Cycles = res.Agg.Cycles
	res.Digest = d.String()
	return res
}

// checkingRunner sits between the experiments and the engine: it times
// each lane's batches when traced, checks that every point committed its
// budget, and sums the delivered results' counters. Results served from
// the engine's cache are delivered work too, so they count.
type checkingRunner struct {
	eng *engine.Engine
	tr  *tracer
	res *iterResult
}

func (c *checkingRunner) RunBatch(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	s := c.tr.begin("experiments.single")
	out, err := c.eng.RunBatch(ctx, specs)
	c.tr.end(s)
	c.res.Specs += len(specs)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		if specs[i].MaxInstr > 0 && r.Stats.Committed != specs[i].MaxInstr {
			c.res.failf("%s committed %d, budget %d", specs[i].Workload, r.Stats.Committed, specs[i].MaxInstr)
		}
		c.res.Committed += r.Stats.Committed
		addCounts(&c.res.Agg, r.Stats)
	}
	return out, nil
}

func (c *checkingRunner) RunSMTBatch(ctx context.Context, specs []sim.SMTSpec) ([]sim.SMTResult, error) {
	s := c.tr.begin("experiments.smt")
	out, err := c.eng.RunSMTBatch(ctx, specs)
	c.tr.end(s)
	c.res.Specs += len(specs)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		for t, n := range r.PerThreadCommitted {
			if specs[i].MaxInstrPerThread > 0 && n != specs[i].MaxInstrPerThread {
				c.res.failf("smt %v thread %d committed %d, budget %d", specs[i].Workloads, t, n, specs[i].MaxInstrPerThread)
			}
		}
		c.res.Committed += r.Stats.Committed
		addCounts(&c.res.Agg, r.Stats)
	}
	return out, nil
}

func (c *checkingRunner) RunMulticoreBatch(ctx context.Context, specs []sim.MulticoreSpec) ([]sim.MulticoreResult, error) {
	s := c.tr.begin("experiments.multicore")
	out, err := c.eng.RunMulticoreBatch(ctx, specs)
	c.tr.end(s)
	c.res.Specs += len(specs)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		for k, cs := range r.PerCore {
			if specs[i].MaxInstrPerCore > 0 && cs.Committed != specs[i].MaxInstrPerCore {
				c.res.failf("multicore %v core %d committed %d, budget %d", specs[i].Workloads, k, cs.Committed, specs[i].MaxInstrPerCore)
			}
		}
		c.res.Committed += r.Stats.Committed
		addCounts(&c.res.Agg, r.Stats)
	}
	return out, nil
}

// --- replay inputs ------------------------------------------------------------

// replayLen caps every replayed stream.
const replayLen = 20_000

// replayInputs are the instruction streams a workload runs, for the core
// and mem layer replays, and how its memory system is configured.
type replayInputs struct {
	// Streams holds each renamer replay's instruction stream.
	Streams [][]trace.Record
	// Machines groups the address streams that share one memory system,
	// one stream per core, interleaved in core-index order.
	Machines [][][]trace.Record
	Shared   bool
	Coh      mem.CoherenceConfig
}

// catalogReplay replays every catalog kernel's emulated stream: each
// kernel through the renamers, and each on a one-core memory system.
func catalogReplay(int64) (replayInputs, error) {
	in := replayInputs{Coh: mem.CoherenceConfig{Enabled: true, Protocol: "msi"}}
	for _, k := range workloads.Catalog() {
		gen, err := k.NewGen()
		if err != nil {
			return in, err
		}
		recs := trace.Collect(gen, replayLen)
		in.Streams = append(in.Streams, recs)
		in.Machines = append(in.Machines, [][]trace.Record{recs})
	}
	return in, nil
}

// coherenceReplay replays the seeded synthetic stream every core runs:
// once through the renamers, and on a shared coherent memory system with
// one copy per core.
func coherenceReplay(c coherenceSpec) (replayInputs, error) {
	recs := trace.Collect(synth.New(c.params), replayLen)
	m := make([][]trace.Record, coherenceCores)
	for i := range m {
		m[i] = recs
	}
	return replayInputs{
		Streams:  [][]trace.Record{recs},
		Machines: [][][]trace.Record{m},
		Shared:   true,
		Coh:      mem.CoherenceConfig{Enabled: true, Protocol: c.protocol, Directory: "fullmap"},
	}, nil
}
