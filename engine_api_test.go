package vpr_test

// Tests for the context-aware Engine facade: construction with functional
// options, batch determinism across parallelism levels, cancellation,
// cache observability, and the experiment registry surface.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	vpr "repro"
)

func engineSpec(workload string, scheme vpr.Scheme, instr int64) vpr.RunSpec {
	cfg := vpr.DefaultConfig()
	cfg.Scheme = scheme
	return vpr.RunSpec{Workload: workload, Config: cfg, MaxInstr: instr}
}

func TestEngineRunBatchDeterminism(t *testing.T) {
	specs := []vpr.RunSpec{
		engineSpec("compress", vpr.SchemeConventional, 4000),
		engineSpec("compress", vpr.SchemeVPWriteback, 4000),
		engineSpec("swim", vpr.SchemeConventional, 4000),
		engineSpec("swim", vpr.SchemeVPIssue, 4000),
	}
	ctx := context.Background()
	serial, err := vpr.New(vpr.WithParallelism(1)).RunBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := vpr.New(vpr.WithParallelism(4)).RunBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	archAll := func(rs []vpr.Result) []vpr.Result {
		out := make([]vpr.Result, len(rs))
		for i, r := range rs {
			r.Stats = r.Stats.Arch()
			out[i] = r
		}
		return out
	}
	if !reflect.DeepEqual(archAll(serial), archAll(parallel)) {
		t.Error("RunBatch results differ between parallelism 1 and 4")
	}
	if serial[0].Workload != "compress" || serial[2].Workload != "swim" {
		t.Error("results are not in spec order")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := vpr.New().Run(ctx, engineSpec("swim", vpr.SchemeConventional, 4000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineCacheHook(t *testing.T) {
	var sims atomic.Int64
	eng := vpr.New(vpr.WithRunHook(func(vpr.RunSpec) { sims.Add(1) }))
	ctx := context.Background()
	spec := engineSpec("compress", vpr.SchemeConventional, 4000)
	for i := 0; i < 3; i++ {
		if _, err := eng.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1 (repeats must hit the cache)", n)
	}
	if hits, misses := eng.CacheStats(); hits != 2 || misses != 1 {
		t.Errorf("cache stats = %d/%d, want 2 hits / 1 miss", hits, misses)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	infos := vpr.Experiments()
	if len(infos) != 14 {
		t.Fatalf("registry size = %d, want 14", len(infos))
	}
	seen := map[string]bool{}
	for _, e := range infos {
		if e.Name == "" || e.Title == "" || e.Reproduces == "" {
			t.Errorf("incomplete experiment info %+v", e)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"table2", "fig4", "fig5", "fig6", "fig7", "smt", "lifetime", "multicore", "coherence"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestEngineRunExperiment(t *testing.T) {
	eng := vpr.New()
	opts := vpr.ExperimentOptions{Instr: 5000, Workloads: []string{"compress", "swim"}}
	res, err := eng.RunExperiment(context.Background(), "table2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "table2" {
		t.Errorf("res.Name = %q", res.Name)
	}
	tab, ok := res.Value.(vpr.Table2)
	if !ok {
		t.Fatalf("res.Value has type %T, want vpr.Table2", res.Value)
	}
	if len(tab.Rows) != 2 || !tab.HavePenalty20 {
		t.Errorf("table2 value = %+v", tab)
	}
	for _, want := range []string{"harmonic mean", "swim", "imp(%)"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("rendered text missing %q:\n%s", want, res.Text)
		}
	}
}

// TestEngineRunBatchRejectsBadCacheGeometry: an L1 geometry the model
// cannot index fails the batch with a validation error that names it,
// instead of panicking inside a worker and taking every other spec — and
// the process — down with it.
func TestEngineRunBatchRejectsBadCacheGeometry(t *testing.T) {
	bad := engineSpec("compress", vpr.SchemeConventional, 2000)
	bad.Config.Cache.SizeBytes = 1000
	specs := []vpr.RunSpec{engineSpec("compress", vpr.SchemeConventional, 2000), bad}
	_, err := vpr.New(vpr.WithParallelism(2)).RunBatch(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "L1 size 1000") {
		t.Fatalf("err = %v, want the L1 geometry error", err)
	}
}

func TestEngineRunExperimentUnknown(t *testing.T) {
	_, err := vpr.New().RunExperiment(context.Background(), "nonesuch", vpr.ExperimentOptions{})
	var ue *vpr.UnknownExperimentError
	if !errors.As(err, &ue) || ue.Name != "nonesuch" {
		t.Fatalf("err = %v, want UnknownExperimentError", err)
	}
}

func TestEngineSMT(t *testing.T) {
	cfg := vpr.DefaultConfig()
	cfg.Rename.PhysRegs = 96
	cfg.Rename.NRRInt = 16
	cfg.Rename.NRRFP = 16
	res, err := vpr.New().RunSMT(context.Background(), vpr.SMTSpec{
		Workloads:         []string{"hydro2d", "hydro2d"},
		Config:            cfg,
		MaxInstrPerThread: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerThreadCommitted) != 2 || res.Stats.Committed != 4000 {
		t.Errorf("smt result = %+v", res)
	}
}
