package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runArch simulates gen to completion on the default machine.
func runArch(t *testing.T, gen trace.Generator) pipeline.Stats {
	t.Helper()
	s, err := pipeline.New(pipeline.DefaultConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return st.Arch()
}

// TestWrapGenTransparent: the timing wrapper must not change what the
// pipeline simulates, and over an emulator-backed generator the pipeline
// must still refill through NextBatch, never record by record.
func TestWrapGenTransparent(t *testing.T) {
	const n = 5000
	k := workloads.MustByName("compress")
	plain, err := k.NewGen()
	if err != nil {
		t.Fatal(err)
	}
	wrappedInner, err := k.NewGen()
	if err != nil {
		t.Fatal(err)
	}
	var acc frontAcc
	want := runArch(t, trace.Take(plain, n))
	got := runArch(t, trace.Take(wrapGen(wrappedInner, &acc), n))
	if got != want {
		t.Errorf("wrapped emu run differs:\n got %+v\nwant %+v", got, want)
	}
	if acc.BatchCalls == 0 || acc.BatchCalls != acc.Calls {
		t.Errorf("NextBatch fast path lost: %d calls, %d of them NextBatch", acc.Calls, acc.BatchCalls)
	}
	if acc.Records != n {
		t.Errorf("wrapper counted %d records, want %d", acc.Records, n)
	}

	// A generator without the batch path stays without it.
	var sacc frontAcc
	p := synth.Sharing()
	want = runArch(t, trace.Take(synth.New(p), n))
	w := wrapGen(synth.New(p), &sacc)
	if _, ok := w.(trace.BatchGenerator); ok {
		t.Error("wrapper invented a NextBatch the synth generator does not have")
	}
	if got := runArch(t, trace.Take(w, n)); got != want {
		t.Errorf("wrapped synth run differs:\n got %+v\nwant %+v", got, want)
	}
	if sacc.BatchCalls != 0 || sacc.Records != n {
		t.Errorf("synth wrapper: %d batch calls, %d records", sacc.BatchCalls, sacc.Records)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames: every workload and metric name and unit uses only the
// allowed alphabet, and no name is used twice.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range benchWorkloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the allowed alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, l := range perLayer {
		use(l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: unit %q outside the allowed alphabet", l.Name, l.Unit)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
	}
}

// TestLayerMapping: every per-layer metric names the end-to-end metrics
// it should move and the workloads where it moves, all of them declared.
func TestLayerMapping(t *testing.T) {
	var e2e []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, l := range perLayer {
		if len(l.Moves) == 0 || len(l.On) == 0 {
			t.Errorf("%s: maps to no end-to-end metric or workload", l.Name)
		}
		for _, m := range l.Moves {
			if !slices.Contains(e2e, m) {
				t.Errorf("%s: moves undeclared end-to-end metric %q", l.Name, m)
			}
		}
		for _, w := range append(slices.Clone(l.On), l.FlatOn...) {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s: undeclared workload %q", l.Name, w)
			}
		}
		for _, w := range l.On {
			if slices.Contains(l.FlatOn, w) {
				t.Errorf("%s: workload %q both moves and stays flat", l.Name, w)
			}
		}
	}
}

// TestReportedMetrics: a timed run reports exactly the end-to-end
// metrics and a traced run exactly the per-layer ones, in their units.
func TestReportedMetrics(t *testing.T) {
	sample := iterSample{res: iterResult{Committed: 1000, Cycles: 900}, wall: 0.5, mallocs: 10, tr: newTracer()}
	o := runOutput{metrics: map[string]metricValue{}}
	endToEndMetrics(&o, []iterSample{sample}, 0.1)
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.Name] = m.Unit
	}
	checkUnits(t, "timed", o.metrics, want)

	o = runOutput{metrics: map[string]metricValue{}}
	layerMetrics(&o, []iterSample{sample}, []iterSample{sample}, []*tracer{newTracer()}, replayResult{})
	want = map[string]string{}
	for _, l := range perLayer {
		want[l.Name] = l.Unit
	}
	checkUnits(t, "traced", o.metrics, want)
}

func checkUnits(t *testing.T, run string, got map[string]metricValue, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if v, ok := got[name]; !ok {
			t.Errorf("%s run misses %s", run, name)
		} else if v.Unit != unit {
			t.Errorf("%s run reports %s in %q, declared %q", run, name, v.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s run reports undeclared %s", run, name)
		}
	}
}

// TestBenchmarkJSON: the checked-in BENCHMARK.json is what the registries
// describe.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := describeBenchmark(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with --describe")
	}
}

// TestReplays: the renamer replay drains cleanly under every scheme and
// the checked memory replay finds no coherence violation.
func TestReplays(t *testing.T) {
	p := synth.Sharing()
	p.Seed = 7
	recs := trace.Collect(synth.New(p), 3000)
	in := replayInputs{
		Streams:  [][]trace.Record{recs},
		Machines: [][][]trace.Record{{recs, recs}},
		Shared:   true,
		Coh:      mem.CoherenceConfig{Enabled: true, Protocol: "msi", Directory: "fullmap"},
	}
	res := runReplays(in)
	if len(res.Failures) > 0 {
		t.Fatalf("replay failures: %v", res.Failures)
	}
	for _, s := range schemes {
		if res.CoreNS[s] <= 0 {
			t.Errorf("%v replay took no time", s)
		}
	}
	if res.MemNS <= 0 {
		t.Error("mem replay took no time")
	}
	if want := len(schemes) + 2; res.Checks != want {
		t.Errorf("%d replay checks, want %d", res.Checks, want)
	}
}
