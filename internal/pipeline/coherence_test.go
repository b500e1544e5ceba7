package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// sharingGens returns two identical-seed synthetic streams — in a shared
// address space the cores touch the same lines in near-lockstep, the
// worst case for the MSI directory.
func sharingGens(n int64) []trace.Generator {
	gens := make([]trace.Generator, 2)
	for i := range gens {
		p := synth.Sharing()
		p.Seed = 5
		gens[i] = trace.Take(synth.New(p), n)
	}
	return gens
}

func runCoherenceMachine(t *testing.T, shared, coherent bool, gens []trace.Generator) Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ValueCheck = false
	mc, err := NewMulticore(MulticoreConfig{
		Cores: 2, Core: cfg, L2: mem.DefaultL2Config(),
		SharedAddressSpace: shared, Coherence: coherent,
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

// TestMulticoreCoherenceOffByteIdentical is the PR's compatibility gate:
// with Coherence disabled, shared-address and namespaced multi-core runs
// must be byte-identical to the pre-coherence hierarchy. The expected
// statistics were captured from the PR-4 code on exactly these
// configurations (2 cores, default machine + default shared L2,
// store-heavy synthetic streams, seed 5, 12000 instructions per core)
// before the MSI directory existed. CacheHits, CacheEvictions and
// L2WriteBacks were read from the memory system's own counters on these
// runs before Stats embedded mem.Stats.
func TestMulticoreCoherenceOffByteIdentical(t *testing.T) {
	base := Stats{
		Committed: 24000, Issued: 24802,
		CondBranches: 3730, Mispredicts: 448,
		Loads: 5888, Stores: 7266, LoadsForwarded: 328,
		MemViolations: 104, SquashedByMem: 2812,
		MemStats: MemStats{
			CacheHits: 12508, CacheMisses: 520, CacheMergedMiss: 56,
			CacheEvictions: 206, PeakMSHRs: 8,
			L2Fetches: 520, L2Hits: 126, L2WriteBacks: 206,
		},
		Stats: core.Stats{RegsFreed: 14730},
	}
	namespaced := base
	namespaced.Cycles = 11385
	namespaced.RenameRegStall = 10194
	namespaced.CacheAccesses = 13774
	namespaced.MSHRStallCycles = 690
	namespaced.L2Misses = 394
	namespaced.L2Conflicts = 306
	namespaced.ROBOccupancySum = 964096
	namespaced.IQOccupancySum = 383024
	namespaced.IntRegsInUseSum = 1272548
	namespaced.FPRegsInUseSum = 728640
	namespaced.RegLifetimeSum = 1206446

	shared := base
	shared.Cycles = 11241
	shared.RenameRegStall = 9998
	shared.CacheAccesses = 13754
	shared.MSHRStallCycles = 670
	shared.L2Misses = 197
	shared.L2Merges = 197
	shared.L2Conflicts = 493
	shared.ROBOccupancySum = 949928
	shared.IQOccupancySum = 378452
	shared.IntRegsInUseSum = 1255204
	shared.FPRegsInUseSum = 719360
	shared.RegLifetimeSum = 1189802

	gens := func() []trace.Generator {
		gens := make([]trace.Generator, 2)
		for i := range gens {
			p := synth.Defaults()
			p.FracStore = 0.3
			p.MissRatio = 0.02
			p.Seed = 5
			gens[i] = trace.Take(synth.New(p), 12000)
		}
		return gens
	}
	if got := runCoherenceMachine(t, false, false, gens()); got.Arch() != namespaced {
		t.Errorf("coherence-off namespaced run diverges from the PR-4 golden:\n got  %+v\n want %+v",
			got.Arch(), namespaced)
	}
	if got := runCoherenceMachine(t, true, false, gens()); got.Arch() != shared {
		t.Errorf("coherence-off shared-address run diverges from the PR-4 golden:\n got  %+v\n want %+v",
			got.Arch(), shared)
	}
}

// TestMulticoreCoherenceInvalidationTraffic: the acceptance shape of the
// coherence experiment — on the sharing workload in one address space the
// directory sends invalidations, takes upgrades and forwards dirty lines,
// and the traffic costs cycles; namespaced cores see none of it.
func TestMulticoreCoherenceInvalidationTraffic(t *testing.T) {
	const n = 10_000
	off := runCoherenceMachine(t, true, false, sharingGens(n))
	if off.L2Invalidations != 0 || off.L2Upgrades != 0 || off.L2WritebackForwards != 0 {
		t.Fatalf("coherence-off run recorded coherence traffic: %+v", off.Arch())
	}
	on := runCoherenceMachine(t, true, true, sharingGens(n))
	if on.L2Invalidations == 0 || on.L2Upgrades == 0 {
		t.Fatalf("sharing workload produced no invalidation traffic: inval=%d upgrades=%d forwards=%d",
			on.L2Invalidations, on.L2Upgrades, on.L2WritebackForwards)
	}
	if on.Cycles <= off.Cycles {
		t.Errorf("invalidation traffic must cost cycles: coherent %d vs coherence-free %d",
			on.Cycles, off.Cycles)
	}
	ns := runCoherenceMachine(t, false, true, sharingGens(n))
	if ns.L2Invalidations != 0 || ns.L2WritebackForwards != 0 {
		t.Errorf("namespaced cores share nothing, but saw inval=%d forwards=%d",
			ns.L2Invalidations, ns.L2WritebackForwards)
	}
}

// TestMulticoreCoherenceDeterministic: the MSI directory inherits the
// lockstep determinism guarantee.
func TestMulticoreCoherenceDeterministic(t *testing.T) {
	a := runCoherenceMachine(t, true, true, sharingGens(8_000))
	b := runCoherenceMachine(t, true, true, sharingGens(8_000))
	if a.Arch() != b.Arch() {
		t.Errorf("two identical coherent runs differ:\n%+v\n%+v", a.Arch(), b.Arch())
	}
	checkL1Accounting(t, a)
}

// TestMulticoreCoherenceValidation: coherence without the shared L2 is
// meaningless and rejected up front.
func TestMulticoreCoherenceValidation(t *testing.T) {
	cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), Coherence: true}
	if err := cfg.Validate(); err == nil {
		t.Error("coherence without the shared L2 must be rejected")
	}
}
