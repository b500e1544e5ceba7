package vpr_test

import (
	"context"
	"strings"
	"testing"

	vpr "repro"
)

// TestRunMulticoreFacadeMatchesSingleCore: through the public API, a
// 1-core multi-core run with the shared L2 disabled is the paper's
// machine — architecturally byte-identical to Engine.Run on the same point.
func TestRunMulticoreFacadeMatchesSingleCore(t *testing.T) {
	cfg := vpr.DefaultConfig()
	single, err := vpr.New().Run(context.Background(), vpr.RunSpec{Workload: "compress", Config: cfg, MaxInstr: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := vpr.RunMulticore(vpr.MulticoreSpec{
		Workloads:       []string{"compress"},
		Config:          cfg,
		MaxInstrPerCore: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Stats.Arch() != single.Stats.Arch() {
		t.Errorf("1-core RunMulticore diverges from Run:\n mc  %+v\n run %+v",
			mc.Stats.Arch(), single.Stats.Arch())
	}
	if len(mc.PerCore) != 1 || mc.PerCore[0].Arch() != single.Stats.Arch() {
		t.Error("per-core stats must match the single-core run")
	}
	if mc.BHTAccuracy != single.BHTAccuracy {
		t.Errorf("BHT accuracy %v, want the single-core run's %v", mc.BHTAccuracy, single.BHTAccuracy)
	}
}

// TestMulticoreExperiment: the registry experiment runs through the
// engine and renders the cores × scheme table.
func TestMulticoreExperiment(t *testing.T) {
	eng := vpr.New()
	opts := vpr.ExperimentOptions{Instr: 4_000, Workloads: []string{"compress"}, Cores: []int{1, 2}}
	res, err := eng.RunExperiment(context.Background(), "multicore", opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.Value.([]vpr.MulticoreRow)
	if !ok {
		t.Fatalf("result value is %T, want []vpr.MulticoreRow", res.Value)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (1 workload × 2 core counts)", len(rows))
	}
	for _, r := range rows {
		if r.ConvIPC <= 0 || r.VPIPC <= 0 {
			t.Errorf("cores=%d: non-positive IPC %+v", r.Cores, r)
		}
	}
	if !strings.Contains(res.Text, "cores") || !strings.Contains(res.Text, "L2 miss") {
		t.Errorf("rendering missing expected columns:\n%s", res.Text)
	}
	// The sweep shares no points with other experiments but caches its
	// own: re-running is free.
	if _, err := eng.RunExperiment(context.Background(), "multicore", opts); err != nil {
		t.Fatal(err)
	}
	if hits, _ := eng.CacheStats(); hits < 4 {
		t.Errorf("re-run hit the cache %d times, want >= 4", hits)
	}
}
