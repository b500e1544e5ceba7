package vpr_test

import (
	"context"
	"runtime"
	"testing"

	vpr "repro"
)

// allocInstr is the committed-instruction budget of every allocation
// point: large enough that per-run setup is amortised the way a real
// experiment amortises it.
const allocInstr = 100_000

// allocPoint is one simulation whose host heap allocations per committed
// instruction are held to a budget.
type allocPoint struct {
	name string
	// bound is the most allocations per committed instruction the point
	// may make, written as the value last recorded for it × 1.25.
	bound float64
	run   func() (vpr.Stats, error)
}

// schemeAllocPoint is one single-core run on an uncached engine, so it
// always simulates.
func schemeAllocPoint(name string, scheme vpr.Scheme, bound float64) allocPoint {
	return allocPoint{name, bound, func() (vpr.Stats, error) {
		cfg := vpr.DefaultConfig()
		cfg.Scheme = scheme
		res, err := vpr.New(vpr.WithCache(0)).Run(context.Background(),
			vpr.RunSpec{Workload: "compress", Config: cfg, MaxInstr: allocInstr})
		return res.Stats, err
	}}
}

// multicoreAllocPoint is a two-core run of workload on both cores behind
// the default shared L2. protocol is "" for the coherence-free hierarchy;
// otherwise the cores share one address space under that protocol.
func multicoreAllocPoint(name, workload, protocol string, bound float64) allocPoint {
	return allocPoint{name, bound, func() (vpr.Stats, error) {
		coherent := protocol != ""
		res, err := vpr.RunMulticore(vpr.MulticoreSpec{
			Workloads:          []string{workload, workload},
			Config:             vpr.DefaultConfig(),
			L2:                 vpr.DefaultL2Config(),
			SharedAddressSpace: coherent,
			Coherence:          coherent,
			Protocol:           protocol,
			MaxInstrPerCore:    allocInstr / 2,
		})
		return res.Stats, err
	}}
}

// TestAllocsPerInstr pins host heap allocations per simulated instruction
// (the runtime.MemStats.Mallocs delta over the run ÷ committed) on the
// scheme, multicore and coherence points. The hot loop allocates nothing
// by construction (hotpathalloc, docs/LINTING.md), so the count is
// per-run setup and repeats to within a few allocations whatever the
// host's speed: a regression fails here, not in a throughput record.
// The coherence twins must also keep their protocol paths live: MSI
// invalidates, and MOESI's Owned state turns L2 write-back forwards into
// owner forwards.
func TestAllocsPerInstr(t *testing.T) {
	sharing := vpr.SynthWorkloadPrefix + "sharing"
	points := []allocPoint{
		schemeAllocPoint("conv", vpr.SchemeConventional, 0.0017*1.25),
		schemeAllocPoint("vp-wb", vpr.SchemeVPWriteback, 0.00753*1.25),
		schemeAllocPoint("vp-issue", vpr.SchemeVPIssue, 0.00251*1.25),
		multicoreAllocPoint("multicore", "compress", "", 0.00326*1.25),
		multicoreAllocPoint("coherence-msi", sharing, "msi", 0.006*1.25),
		multicoreAllocPoint("coherence-moesi", sharing, "moesi", 0.00574*1.25),
	}
	stats := map[string]vpr.Stats{}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			st, err := p.run()
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if st.Committed != allocInstr {
				t.Fatalf("committed %d, want %d", st.Committed, allocInstr)
			}
			allocs := m1.Mallocs - m0.Mallocs
			perInstr := float64(allocs) / float64(st.Committed)
			t.Logf("%d allocs, %.5f/instr (budget %.5f)", allocs, perInstr, p.bound)
			if perInstr > p.bound {
				t.Error("over budget: a hot-path allocation regressed (run make lint)")
			}
			stats[p.name] = st
		})
	}

	msi, moesi := stats["coherence-msi"], stats["coherence-moesi"]
	if msi.L2Invalidations == 0 {
		t.Error("MSI sharing point sent no invalidations: the coherence path is dead")
	}
	if moesi.L2OwnerForwards == 0 {
		t.Error("MOESI sharing point never owner-forwarded: the Owned state is dead")
	}
	if moesi.L2WritebackForwards >= msi.L2WritebackForwards {
		t.Errorf("MOESI L2 write-back forwards %d not strictly below MSI's %d: Owned exists to avoid them",
			moesi.L2WritebackForwards, msi.L2WritebackForwards)
	}
}
