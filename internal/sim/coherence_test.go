package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// TestMulticoreSpecCoherenceOffGolden pins the workload path of the
// compatibility gate: RunMulticore with Coherence unset must reproduce
// the exact statistics the PR-4 hierarchy produced. The values were
// captured on these configurations (compress × 2 cores, default machine
// and shared L2, 15000 instructions per core) before the MSI directory
// existed. CacheHits, CacheEvictions and L2WriteBacks were read from the
// memory system's own counters on these runs before Stats embedded
// mem.Stats.
func TestMulticoreSpecCoherenceOffGolden(t *testing.T) {
	base := pipeline.Stats{
		Committed: 30000, Issued: 30000,
		CondBranches: 3528, Mispredicts: 2,
		Loads: 1764, Stores: 1764,
		MemStats: pipeline.MemStats{
			CacheAccesses: 3528, CacheHits: 2680, CacheMisses: 846,
			CacheMergedMiss: 2, PeakMSHRs: 3, L2Fetches: 846,
		},
		Stats: core.Stats{RegsFreed: 24708},
	}
	namespaced := base
	namespaced.Cycles = 27585
	namespaced.RenameRegStall = 53214
	namespaced.L2Misses = 846
	namespaced.ROBOccupancySum = 2242994
	namespaced.IQOccupancySum = 424524
	namespaced.IntRegsInUseSum = 3527840
	namespaced.FPRegsInUseSum = 1765440
	namespaced.RegLifetimeSum = 2177088

	shared := base
	shared.Cycles = 27169
	shared.RenameRegStall = 52384
	shared.L2Misses = 423
	shared.L2Merges = 423
	shared.L2Conflicts = 454
	shared.ROBOccupancySum = 2208800
	shared.IQOccupancySum = 421144
	shared.IntRegsInUseSum = 3474464
	shared.FPRegsInUseSum = 1738752
	shared.RegLifetimeSum = 2143760

	for _, tc := range []struct {
		sharedAddr bool
		want       pipeline.Stats
	}{{false, namespaced}, {true, shared}} {
		res, err := RunMulticore(MulticoreSpec{
			Workloads:          []string{"compress", "compress"},
			Config:             pipeline.DefaultConfig(),
			L2:                 mem.DefaultL2Config(),
			SharedAddressSpace: tc.sharedAddr,
			MaxInstrPerCore:    15000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.Arch(); got != tc.want {
			t.Errorf("shared=%v: coherence-off run diverges from the PR-4 golden:\n got  %+v\n want %+v",
				tc.sharedAddr, got, tc.want)
		}
	}
}

// TestMulticoreSynthWorkloads: "synth:" names resolve to the preset
// registry, run deterministically, and unknown presets fail like unknown
// workloads.
func TestMulticoreSynthWorkloads(t *testing.T) {
	spec := MulticoreSpec{
		Workloads:          []string{"synth:sharing", "synth:sharing"},
		Config:             pipeline.DefaultConfig(),
		L2:                 mem.DefaultL2Config(),
		SharedAddressSpace: true,
		Coherence:          true,
		MaxInstrPerCore:    5000,
	}
	a, err := RunMulticore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Committed != 10000 {
		t.Errorf("committed %d, want 10000 across 2 synthetic cores", a.Stats.Committed)
	}
	if a.Stats.L2Invalidations == 0 {
		t.Error("the sharing preset in one address space must generate invalidations")
	}
	b, err := RunMulticore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Arch() != b.Stats.Arch() {
		t.Error("synthetic multicore runs must be deterministic")
	}
	spec.Workloads = []string{"synth:nonesuch"}
	if _, err := RunMulticore(spec); err == nil {
		t.Error("unknown synthetic preset must be rejected")
	}
}
