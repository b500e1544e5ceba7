package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// randSynthParams draws a randomized synthetic-workload parameterization:
// mixes, dependence distances, miss ratios and branch behaviour all vary,
// so kernels are compared across very different machine dynamics (miss
// storms, re-execution pressure, violation replays, FP saturation). Used
// by the scanoracle differential suite.
func randSynthParams(rng *rand.Rand) synth.Params {
	p := synth.Defaults()
	p.Seed = rng.Int63()
	p.FracLoad = 0.1 + 0.3*rng.Float64()
	p.FracStore = 0.05 + 0.2*rng.Float64()
	p.FracBranch = 0.05 + 0.15*rng.Float64()
	p.FracFPALU = 0.3 * rng.Float64()
	p.FracFPMul = 0.15 * rng.Float64()
	p.FracFPDiv = 0.05 * rng.Float64()
	p.FracIntMul = 0.1 * rng.Float64()
	p.FracIntDiv = 0.03 * rng.Float64()
	p.FracFPLoads = rng.Float64()
	p.MeanDepDist = 1 + 10*rng.Float64()
	p.MissRatio = 0.5 * rng.Float64()
	p.BiasedBranchFrac = rng.Float64()
	return p
}

// mcResult is what a multicore pin compares: the aggregate architectural
// statistics plus each core's in-order commit stream (cores are
// single-thread, so the inum sequence is the stream).
type mcResult struct {
	agg     Stats
	streams [][]int64
}

// runMulticore builds and runs one Multicore, capturing commit streams.
func runMulticore(t *testing.T, cfg MulticoreConfig, mkGens func() []trace.Generator, max int64) mcResult {
	t.Helper()
	mc, err := NewMulticore(cfg, mkGens())
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]int64, mc.Cores())
	for i := 0; i < mc.Cores(); i++ {
		mc.Core(i).onCommit = func(_ int, inum int64) {
			streams[i] = append(streams[i], inum)
		}
	}
	agg, err := mc.Run(max)
	if err != nil {
		t.Fatal(err)
	}
	if max <= 0 && !mc.Done() {
		t.Fatal("multicore not drained")
	}
	return mcResult{agg: agg.Arch(), streams: streams}
}

// TestMulticoreSingleCoreByteIdentical is the acceptance criterion: a
// 1-core Multicore with the shared L2 disabled is the paper's machine,
// and must produce byte-identical statistics to the plain Sim on the same
// trace.
func TestMulticoreSingleCoreByteIdentical(t *testing.T) {
	prog := randProgram(rand.New(rand.NewSource(7)), 60, 40)
	cfg := DefaultConfig()
	cfg.ValueCheck = true

	gen, err := emu.NewTraceGen(prog)
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	gen2, err := emu.NewTraceGen(prog)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMulticore(MulticoreConfig{Cores: 1, Core: cfg}, []trace.Generator{gen2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := mc.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Arch() != want.Arch() {
		t.Errorf("1-core Multicore diverges from Sim:\n mc  %+v\n sim %+v", agg.Arch(), want.Arch())
	}
	if core := mc.CoreStats(0); core.Arch() != want.Arch() {
		t.Errorf("core-0 stats diverge from Sim:\n mc  %+v\n sim %+v", core.Arch(), want.Arch())
	}
	if !mc.Done() {
		t.Error("multicore not drained")
	}
}

// TestMulticoreMatchesPrivateL2Mode: the internal/mem single-core path —
// an L1 over a 1-bank BankedL2 with the bank bus disabled, the machine
// vpsim -l2 runs — is cycle-exact with the private-L2 tag-array mode
// cache.Config used to carry (64 KB L2, 100-cycle memory latency). That
// mode is gone; the Arch() values below were captured from it on these
// exact randomized synthetic workloads, and must still be reproduced.
// CacheHits, CacheEvictions and L2WriteBacks were read from the memory
// system's own counters on these runs before Stats embedded mem.Stats.
func TestMulticoreMatchesPrivateL2Mode(t *testing.T) {
	pins := map[string]Stats{
		"seed1-miss0.05": {
			Cycles: 48411, Committed: 30000, Issued: 30292,
			CondBranches: 4565, Mispredicts: 570, Loads: 7455, Stores: 3007,
			LoadsForwarded: 97, MemViolations: 35, SquashedByMem: 809,
			ROBOccupancySum: 1658807, IQOccupancySum: 843689,
			IntRegsInUseSum: 2796599, FPRegsInUseSum: 1549152,
			Stats: core.Stats{RenameRegStall: 26858, RegLifetimeSum: 2676489, RegsFreed: 23093},
			MemStats: MemStats{
				CacheAccesses: 10456, CacheHits: 9749, CacheMisses: 691,
				CacheMergedMiss: 16, CacheEvictions: 102, PeakMSHRs: 8,
				L2Fetches: 691, L2Hits: 27, L2Misses: 664, L2WriteBacks: 102,
			},
		},
		"seed1-miss0.25": {
			Cycles: 67063, Committed: 30000, Issued: 30108,
			CondBranches: 1831, Mispredicts: 165, Loads: 8961, Stores: 2387,
			LoadsForwarded: 215, MemViolations: 11, SquashedByMem: 256,
			ROBOccupancySum: 3314241, IQOccupancySum: 1047845,
			IntRegsInUseSum: 2885469, FPRegsInUseSum: 4254993,
			Stats: core.Stats{RenameRegStall: 62857, RegLifetimeSum: 6833377, RegsFreed: 26002},
			MemStats: MemStats{
				CacheAccesses: 28124, CacheHits: 7850, CacheMisses: 3258,
				CacheMergedMiss: 64, MSHRStallCycles: 16952,
				CacheEvictions: 839, PeakMSHRs: 8, L2Fetches: 3258,
				L2Hits: 256, L2Misses: 3002, L2WriteBacks: 839,
			},
		},
		"seed2-miss0.05": {
			Cycles: 47101, Committed: 30000, Issued: 30170,
			CondBranches: 4461, Mispredicts: 598, Loads: 7635, Stores: 2994,
			LoadsForwarded: 81, MemViolations: 28, SquashedByMem: 655,
			ROBOccupancySum: 1607623, IQOccupancySum: 805183,
			IntRegsInUseSum: 2728942, FPRegsInUseSum: 1507232,
			Stats: core.Stats{RenameRegStall: 28067, RegLifetimeSum: 2609134, RegsFreed: 23054},
			MemStats: MemStats{
				CacheAccesses: 10614, CacheHits: 9956, CacheMisses: 644,
				CacheMergedMiss: 14, CacheEvictions: 74, PeakMSHRs: 7,
				L2Fetches: 644, L2Hits: 1, L2Misses: 643, L2WriteBacks: 74,
			},
		},
		"seed2-miss0.25": {
			Cycles: 68703, Committed: 30000, Issued: 30060,
			CondBranches: 1750, Mispredicts: 155, Loads: 9121, Stores: 2435,
			LoadsForwarded: 264, MemViolations: 10, SquashedByMem: 164,
			ROBOccupancySum: 3384029, IQOccupancySum: 1068139,
			IntRegsInUseSum: 2945986, FPRegsInUseSum: 4362717,
			Stats: core.Stats{RenameRegStall: 64381, RegLifetimeSum: 6996726, RegsFreed: 25958},
			MemStats: MemStats{
				CacheAccesses: 30166, CacheHits: 7969, CacheMisses: 3294,
				CacheMergedMiss: 58, MSHRStallCycles: 18845,
				CacheEvictions: 841, PeakMSHRs: 8, L2Fetches: 3294,
				L2Hits: 256, L2Misses: 3038, L2WriteBacks: 841,
			},
		},
		"seed3-miss0.05": {
			Cycles: 45710, Committed: 30000, Issued: 30180,
			CondBranches: 4448, Mispredicts: 605, Loads: 7498, Stores: 3023,
			LoadsForwarded: 94, MemViolations: 32, SquashedByMem: 682,
			ROBOccupancySum: 1545818, IQOccupancySum: 805113,
			IntRegsInUseSum: 2630512, FPRegsInUseSum: 1462720,
			Stats: core.Stats{RenameRegStall: 25465, RegLifetimeSum: 2514128, RegsFreed: 23074},
			MemStats: MemStats{
				CacheAccesses: 10498, CacheHits: 9801, CacheMisses: 688,
				CacheMergedMiss: 9, CacheEvictions: 98, PeakMSHRs: 8,
				L2Fetches: 688, L2Hits: 24, L2Misses: 664, L2WriteBacks: 98,
			},
		},
		"seed3-miss0.25": {
			Cycles: 67505, Committed: 30000, Issued: 30058,
			CondBranches: 1753, Mispredicts: 144, Loads: 8967, Stores: 2457,
			LoadsForwarded: 263, MemViolations: 8, SquashedByMem: 147,
			ROBOccupancySum: 3333010, IQOccupancySum: 1045309,
			IntRegsInUseSum: 2892106, FPRegsInUseSum: 4295478,
			Stats: core.Stats{RenameRegStall: 63907, RegLifetimeSum: 6879742, RegsFreed: 25917},
			MemStats: MemStats{
				CacheAccesses: 29689, CacheHits: 7790, CacheMisses: 3325,
				CacheMergedMiss: 73, MSHRStallCycles: 18501,
				CacheEvictions: 831, PeakMSHRs: 8, L2Fetches: 3325,
				L2Hits: 257, L2Misses: 3068, L2WriteBacks: 831,
			},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, params := range []synth.Params{synth.Defaults(), synth.FPStream()} {
			params.Seed = seed
			name := fmt.Sprintf("seed%d-miss%.2f", seed, params.MissRatio)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.ValueCheck = false // synthetic traces carry no values
				mc, err := NewMulticore(MulticoreConfig{
					Cores: 1,
					Core:  cfg,
					L2: mem.L2Config{
						Enabled:       true,
						SizeBytes:     64 * 1024,
						Banks:         1,
						HitPenalty:    cfg.Cache.MissPenalty,
						MissPenalty:   100,
						BankBusCycles: 0,
					},
				}, []trace.Generator{trace.Take(synth.New(params), 30_000)})
				if err != nil {
					t.Fatal(err)
				}
				got, err := mc.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if want := pins[name]; got.Arch() != want {
					t.Errorf("mem path diverges from the pinned private-L2 mode:\n got %#v\nwant %#v", got.Arch(), want)
				}
			})
		}
	}
}

// TestMulticoreDeterministic: a shared-L2 multi-core run is bit-identical
// run to run — the lockstep stepping order is the only ordering.
func TestMulticoreDeterministic(t *testing.T) {
	run := func() Stats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ValueCheck = false
		gens := make([]trace.Generator, 3)
		for i := range gens {
			p := synth.Defaults()
			p.Seed = int64(10 + i)
			gens[i] = trace.Take(synth.New(p), 10_000)
		}
		mc, err := NewMulticore(MulticoreConfig{Cores: 3, Core: cfg, L2: mem.DefaultL2Config()}, gens)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Arch() != b.Arch() {
		t.Errorf("two identical multi-core runs differ:\n%+v\n%+v", a.Arch(), b.Arch())
	}
	if a.Committed != 30_000 {
		t.Errorf("committed %d, want 30000 across 3 cores", a.Committed)
	}
	if a.L2Hits+a.L2Misses == 0 {
		t.Error("shared L2 saw no fetches")
	}
	checkL1Accounting(t, a)
}

// TestMulticoreSharedL2Contention: cores contending for the same banks
// pay for it — with a single slow bank, the same work takes longer than
// with many fast banks, and the conflicts are counted.
func TestMulticoreSharedL2Contention(t *testing.T) {
	run := func(banks, busCycles int) Stats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ValueCheck = false
		gens := make([]trace.Generator, 4)
		for i := range gens {
			p := synth.Defaults()
			p.MissRatio = 0.5 // miss-heavy: the L2 is on the critical path
			p.Seed = int64(20 + i)
			gens[i] = trace.Take(synth.New(p), 8_000)
		}
		l2 := mem.DefaultL2Config()
		l2.Banks = banks
		l2.BankBusCycles = busCycles
		mc, err := NewMulticore(MulticoreConfig{Cores: 4, Core: cfg, L2: l2}, gens)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	contended := run(1, 64)
	wide := run(8, 1)
	if contended.L2Conflicts == 0 {
		t.Fatal("single-bank run recorded no bank conflicts")
	}
	if contended.Cycles <= wide.Cycles {
		t.Errorf("bank contention must cost cycles: 1×slow bank %d cycles vs 8×fast %d",
			contended.Cycles, wide.Cycles)
	}
}

// TestMulticoreSharedAddressSpace: with one address space, cores running
// the same access pattern share L2 lines — in-flight refills merge across
// cores and later fetches hit — where the namespaced default sees only
// cold misses.
func TestMulticoreSharedAddressSpace(t *testing.T) {
	run := func(shared bool) Stats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ValueCheck = false
		gens := make([]trace.Generator, 2)
		for i := range gens {
			p := synth.Defaults()
			p.Seed = 5 // identical streams on both cores
			gens[i] = trace.Take(synth.New(p), 8_000)
		}
		mc, err := NewMulticore(MulticoreConfig{
			Cores: 2, Core: cfg, L2: mem.DefaultL2Config(), SharedAddressSpace: shared,
		}, gens)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	private, sharedSt := run(false), run(true)
	if private.L2Merges != 0 {
		t.Errorf("namespaced cores merged %d refills, want 0", private.L2Merges)
	}
	if sharedSt.L2Merges == 0 && sharedSt.L2Hits <= private.L2Hits {
		t.Errorf("shared address space shows no sharing: merges=%d hits=%d (private hits=%d)",
			sharedSt.L2Merges, sharedSt.L2Hits, private.L2Hits)
	}
}

// TestMulticoreConfigValidation: bad machines are rejected up front.
func TestMulticoreConfigValidation(t *testing.T) {
	gen := func() trace.Generator { return trace.Take(synth.New(synth.Defaults()), 100) }
	if _, err := NewMulticore(MulticoreConfig{Cores: 0, Core: DefaultConfig()}, nil); err == nil {
		t.Error("zero cores must be rejected")
	}
	if _, err := NewMulticore(MulticoreConfig{Cores: 2, Core: DefaultConfig()}, []trace.Generator{gen()}); err == nil {
		t.Error("trace/core count mismatch must be rejected")
	}
	gens := []trace.Generator{gen(), gen()}
	for _, step := range []StepMode{"", StepLockstep} {
		if _, err := NewMulticore(MulticoreConfig{Cores: 2, Core: DefaultConfig(), Step: step}, gens); err != nil {
			t.Errorf("Step %q must be accepted: %v", step, err)
		}
	}
	for _, step := range []StepMode{"parallel", "skew:64"} {
		if _, err := NewMulticore(MulticoreConfig{Cores: 2, Core: DefaultConfig(), Step: step}, gens); err == nil {
			t.Errorf("Step %q must be rejected: the concurrent stepper is gone", step)
		}
	}
}

// TestMulticoreLiveTracking: Done() turns true once every core drains,
// and the run loop never steps a drained core again (the live list
// shrinks).
func TestMulticoreLiveTracking(t *testing.T) {
	cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config()}
	cfg.Core.ValueCheck = false
	short := synth.Defaults()
	short.Seed = 3
	long := synth.Defaults()
	long.Seed = 4
	mc, err := NewMulticore(cfg, []trace.Generator{
		trace.Take(synth.New(short), 500),
		trace.Take(synth.New(long), 8000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Done() {
		t.Fatal("fresh multicore reports done")
	}
	if _, err := mc.Run(0); err != nil {
		t.Fatal(err)
	}
	if !mc.Done() {
		t.Fatal("drained multicore not done")
	}
	c0, c1 := mc.Core(0).cycle, mc.Core(1).cycle
	if c0 >= c1 {
		t.Errorf("short-trace core stepped to cycle %d, long core %d: drained core kept stepping", c0, c1)
	}
}

// TestAddStatsFoldsEveryCounter gives every integer counter of a Stats —
// the pipeline's own and those of the embedded core.Stats and MemStats —
// a distinct non-zero value and folds it into a zero Stats. addStats
// must reproduce it exactly: a counter left out of addStats or of either
// embedded Add, a dropped maximum, or a fold into the wrong field all
// show up as a mismatch, which is how a counter would otherwise vanish
// from every multicore and SMT aggregate.
func TestAddStatsFoldsEveryCounter(t *testing.T) {
	var st Stats
	next := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int, reflect.Int64:
				next++
				f.SetInt(next)
			}
		}
	}
	fill(reflect.ValueOf(&st).Elem())
	if st.Stats == (core.Stats{}) || st.MemStats == (MemStats{}) {
		t.Fatal("the walk did not reach the embedded counter structs")
	}

	var agg Stats
	addStats(&agg, st)
	if agg.Arch() != st.Arch() {
		t.Errorf("addStats into a zero Stats lost or moved a counter:\n got %+v\nwant %+v", agg.Arch(), st.Arch())
	}
}
