package pipeline

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// BenchmarkCoherencePoint times the MSI-coherent two-core sharing run and
// reports its allocations; TestAllocsPerInstr (allocs_test.go in the
// module root) pins the same point's allocation budget.
// Steady-state hot-loop allocations are zero by construction
// (hotpathalloc, docs/LINTING.md); what remains is per-run setup, so
// allocs/op must stay flat as instruction counts grow.
func BenchmarkCoherencePoint(b *testing.B) {
	p, ok := synth.ByName("sharing")
	if !ok {
		b.Fatal("sharing preset missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mc, err := NewMulticore(MulticoreConfig{
			Cores:              2,
			Core:               DefaultConfig(),
			L2:                 mem.DefaultL2Config(),
			SharedAddressSpace: true,
			Coherence:          true,
		}, []trace.Generator{synth.New(p), synth.New(p)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mc.Run(50000); err != nil {
			b.Fatal(err)
		}
	}
}
