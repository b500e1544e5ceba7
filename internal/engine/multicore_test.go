package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func mcSpec(cores int, l2 mem.L2Config) sim.MulticoreSpec {
	names := make([]string, cores)
	for i := range names {
		names[i] = "compress"
	}
	return sim.MulticoreSpec{
		Workloads:       names,
		Config:          pipeline.DefaultConfig(),
		L2:              l2,
		MaxInstrPerCore: 3_000,
	}
}

// TestRunMulticoreCaches: a repeated multi-core point is served from the
// cache; changing only the shared-L2 memory configuration re-simulates
// (the key covers the mem config).
func TestRunMulticoreCaches(t *testing.T) {
	e := New()
	ctx := context.Background()
	l2 := mem.DefaultL2Config()

	first, err := e.RunMulticore(ctx, mcSpec(2, l2))
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.RunMulticore(ctx, mcSpec(2, l2))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 1 {
		t.Errorf("repeat point: %d cache hits, want 1", hits)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached multi-core result differs from the original")
	}
	// Mutating the cached copy must not poison the cache.
	again.PerCore[0] = pipeline.Stats{}
	third, _ := e.RunMulticore(ctx, mcSpec(2, l2))
	if !reflect.DeepEqual(first, third) {
		t.Error("cache entry shares state with a returned result")
	}

	smaller := l2
	smaller.SizeBytes = 64 * 1024
	if _, err := e.RunMulticore(ctx, mcSpec(2, smaller)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 2 || misses != 2 {
		t.Errorf("L2-size change: hits/misses = %d/%d, want 2/2 (mem config keys the cache)", hits, misses)
	}
}

// TestRunMulticoreCoherenceKeysCache: flipping only the Coherence (or
// SharedAddressSpace) switch is a different machine and must never share
// a cache entry with the coherence-free run.
func TestRunMulticoreCoherenceKeysCache(t *testing.T) {
	e := New()
	ctx := context.Background()
	base := mcSpec(2, mem.DefaultL2Config())
	base.SharedAddressSpace = true

	off, err := e.RunMulticore(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	coherent := base
	coherent.Coherence = true
	if _, err := e.RunMulticore(ctx, coherent); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("coherence flip: hits/misses = %d/%d, want 0/2 (Coherence keys the cache)", hits, misses)
	}
	if off.Stats.L2Invalidations != 0 {
		t.Errorf("coherence-off run recorded %d invalidations", off.Stats.L2Invalidations)
	}
	// Both variants are cached independently.
	if _, err := e.RunMulticore(ctx, base); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunMulticore(ctx, coherent); err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 2 {
		t.Errorf("repeat points: %d cache hits, want 2", hits)
	}
}

// TestRunMulticoreBatchDeterministic: batches of multi-core machines
// produce identical results at every parallelism level.
func TestRunMulticoreBatchDeterministic(t *testing.T) {
	specs := []sim.MulticoreSpec{
		mcSpec(1, mem.DefaultL2Config()),
		mcSpec(2, mem.DefaultL2Config()),
		mcSpec(2, mem.L2Config{}), // shared L2 disabled: private hierarchies
	}
	serial, err := New(WithParallelism(1), WithCache(0)).RunMulticoreBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(WithParallelism(8), WithCache(0)).RunMulticoreBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Stats.Arch() != parallel[i].Stats.Arch() {
			t.Errorf("spec %d: serial and parallel multi-core runs differ", i)
		}
	}
	if serial[0].Stats.Committed >= serial[1].Stats.Committed {
		t.Error("2-core point should commit more in aggregate than 1-core")
	}
}
