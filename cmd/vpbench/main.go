// Command vpbench measures simulator and harness throughput and writes a
// machine-readable BENCH_pipeline.json, so the repository's performance
// trajectory is recorded PR over PR (make bench).
//
// Two families of numbers are reported:
//
//   - scheme points: simulated instructions and cycles per host second for
//     each renaming scheme on representative workloads, straight from the
//     kernel's throughput stats (pipeline.Stats);
//   - harness timings: wall-clock for the full workload × scheme grid
//     through Engine.RunBatch at parallelism 1 and GOMAXPROCS, the number
//     `vptables -exp all` effectively pays.
//
// The multicore and coherence points record the lockstep multi-core
// runner on a catalog kernel and on the sharing-heavy synthetic stream.
// -repeat N reruns each measured point and keeps the best throughput
// (architectural fields are cross-checked for equality across repeats),
// and -cpuprofile/-memprofile capture pprof profiles of the whole run
// (make profile).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	vpr "repro"
)

type schemePoint struct {
	Scheme       string  `json:"scheme"`
	Workload     string  `json:"workload"`
	Instr        int64   `json:"instr"`
	IPC          float64 `json:"ipc"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// AllocsPerInstr is host heap allocations per simulated instruction
	// (runtime.MemStats.Mallocs delta over the run) — the allocs/op
	// number the CI bench smoke validates.
	AllocsPerInstr float64 `json:"allocs_per_instr"`
}

// multicorePoint records the multi-core runner's throughput: N cores
// behind the banked shared L2. The CI bench smoke fails if this point is
// missing from the report.
type multicorePoint struct {
	Workload       string  `json:"workload"`
	Cores          int     `json:"cores"`
	L2SizeBytes    int     `json:"l2_size_bytes"`
	L2Banks        int     `json:"l2_banks"`
	Instr          int64   `json:"instr"` // committed, aggregate
	IPC            float64 `json:"ipc"`   // aggregate
	InstrsPerSec   float64 `json:"instrs_per_sec"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	L2MissRatio    float64 `json:"l2_miss_ratio"`
}

// coherencePoint records the coherent multicore runner's throughput and
// invalidation traffic on the sharing-heavy synthetic workload: cores in
// one address space with the directory on, under the recorded protocol.
// The CI bench smoke fails if this point is missing, lacks its protocol
// name, or shows no invalidations.
type coherencePoint struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	// Protocol is the coherence protocol the point ran under ("msi",
	// "mesi", "moesi"); Directory the sharer representation ("" =
	// fullmap).
	Protocol          string  `json:"protocol"`
	Directory         string  `json:"directory,omitempty"`
	Instr             int64   `json:"instr"` // committed, aggregate
	IPC               float64 `json:"ipc"`   // aggregate
	InstrsPerSec      float64 `json:"instrs_per_sec"`
	AllocsPerInstr    float64 `json:"allocs_per_instr"`
	Invalidations     int64   `json:"l2_invalidations"`
	BackInvalidations int64   `json:"l2_back_invalidations"`
	Upgrades          int64   `json:"l2_upgrades"`
	WritebackForwards int64   `json:"l2_writeback_forwards"`
	OwnerForwards     int64   `json:"l2_owner_forwards"`
	SilentUpgrades    int64   `json:"silent_upgrades"`
}

type harnessTiming struct {
	Specs           int     `json:"specs"`
	InstrPerSpec    int64   `json:"instr_per_spec"`
	Parallelism     int     `json:"parallelism"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	SerialInstrsPS  float64 `json:"serial_instrs_per_sec"`
	ParallelInstrPS float64 `json:"parallel_instrs_per_sec"`
}

type report struct {
	Schema    string `json:"schema"`
	Generated string `json:"generated"`
	// GoMaxProcs is the harness's ambient GOMAXPROCS (the parallel
	// harness timing runs that many workers); NumCPU the host's processor
	// count.
	GoMaxProcs int            `json:"go_max_procs"`
	NumCPU     int            `json:"num_cpu"`
	Repeat     int            `json:"repeat"`
	Schemes    []schemePoint  `json:"schemes"`
	Multicore  multicorePoint `json:"multicore"`
	Coherence  coherencePoint `json:"coherence"`
	// CoherenceMOESI is the lockstep Coherence point rerun under MOESI on
	// the identical workload: the Owned state converts read-triggered L2
	// write-back forwards into cache-to-cache owner forwards, so its
	// l2_writeback_forwards must come in strictly below the MSI twin's
	// (CI-enforced) — the protocol refactor's measured payoff.
	CoherenceMOESI coherencePoint `json:"coherence_moesi"`
	Harness        harnessTiming  `json:"harness"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_pipeline.json", "output file")
		instr      = flag.Int64("instr", 100_000, "instructions per scheme point")
		gridInstr  = flag.Int64("grid-instr", 20_000, "instructions per harness grid point")
		wls        = flag.String("workloads", "compress,swim,hydro2d", "workloads for the scheme points")
		fetchPol   = flag.String("fetch", "", "fetch policy for every run (default round-robin)")
		issueSel   = flag.String("issue", "", "issue-select heuristic for every run (default oldest-first)")
		cores      = flag.Int("cores", 2, "core count for the recorded multicore and coherence points")
		l2Geom     = flag.String("l2", "", "shared L2 geometry for the multicore/coherence points: SIZE[:BANKS], e.g. 256K:4 (default DefaultL2Config)")
		coh        = flag.Bool("coherence", false, "run the generic multicore point with one shared address space and the coherence directory on (the dedicated coherence points always do)")
		protoFlag  = flag.String("protocol", "", "coherence protocol for the coherence points: msi (default), mesi, or moesi (the coherence_moesi point always runs moesi)")
		dirFlag    = flag.String("dir", "", "coherence directory representation for the coherence points: fullmap (default) or limited[:N]")
		repeat     = flag.Int("repeat", 1, "repeats per measured point; the best throughput is kept and architectural stats are cross-checked for equality")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after GC) to this file")
	)
	flag.Parse()
	if *cores < 1 {
		fmt.Fprintf(os.Stderr, "vpbench: -cores must be at least 1, have %d\n", *cores)
		os.Exit(1)
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "vpbench: -repeat must be at least 1, have %d\n", *repeat)
		os.Exit(1)
	}
	if _, err := vpr.CoherenceProtocolByName(*protoFlag); err != nil {
		fmt.Fprintf(os.Stderr, "vpbench: -protocol: %v\n", err)
		os.Exit(1)
	}
	if err := vpr.ParseDirectoryKind(*dirFlag); err != nil {
		fmt.Fprintf(os.Stderr, "vpbench: -dir: %v\n", err)
		os.Exit(1)
	}
	l2 := vpr.DefaultL2Config()
	if *l2Geom != "" {
		size, banks, err := vpr.ParseL2Geometry(*l2Geom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: -l2: %v\n", err)
			os.Exit(1)
		}
		l2.SizeBytes = size
		if banks > 0 {
			l2.Banks = banks
		}
	}
	var policies vpr.Policies
	if *fetchPol != "" {
		p, ok := vpr.FetchPolicyByName(*fetchPol)
		if !ok {
			fmt.Fprintf(os.Stderr, "vpbench: unknown fetch policy %q\n", *fetchPol)
			os.Exit(1)
		}
		policies.Fetch = p
	}
	if *issueSel != "" {
		sel, ok := vpr.IssueSelectByName(*issueSel)
		if !ok {
			fmt.Fprintf(os.Stderr, "vpbench: unknown issue-select heuristic %q\n", *issueSel)
			os.Exit(1)
		}
		policies.Issue = sel
	}
	var cpuFile *os.File
	if *cpuprofile != "" {
		var err error
		cpuFile, err = os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -cpuprofile:", err)
			os.Exit(1)
		}
	}
	runErr := run(*out, *instr, *gridInstr, strings.Split(*wls, ","), policies, *cores, l2, *coh, *protoFlag, *dirFlag, *repeat)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		fmt.Println("wrote CPU profile to", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -memprofile:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -memprofile:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -memprofile:", err)
			os.Exit(1)
		}
		fmt.Println("wrote heap profile to", *memprofile)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", runErr)
		os.Exit(1)
	}
}

// bestOf runs once() n times and keeps the result with the best
// throughput — the run least disturbed by host noise, the benchmarking
// convention — while cross-checking that the architectural view
// (Stats.Arch) is identical across every repeat: a free determinism test
// on every bench invocation.
func bestOf(n int, once func() (vpr.Stats, float64, error)) (vpr.Stats, float64, error) {
	best, bestAllocs, err := once()
	if err != nil {
		return vpr.Stats{}, 0, err
	}
	for i := 1; i < n; i++ {
		st, allocs, err := once()
		if err != nil {
			return vpr.Stats{}, 0, err
		}
		if st.Arch() != best.Arch() {
			return vpr.Stats{}, 0, fmt.Errorf("repeat %d diverged architecturally from repeat 0: %v vs %v", i, st.Arch(), best.Arch())
		}
		if st.InstrsPerSec > best.InstrsPerSec {
			best, bestAllocs = st, allocs
		}
	}
	return best, bestAllocs, nil
}

// measureMulticore runs one multi-core point — the same workload on every
// core — bracketed by MemStats reads, returning the aggregate stats and
// the host heap allocations per committed instruction. All recorded
// multicore points share this measurement protocol, and none go through
// the engine cache, so every point is honestly recomputed in-process.
func measureMulticore(wl string, policies vpr.Policies, cores int, l2 vpr.L2Config,
	coherent bool, proto, dir string, instr int64) (vpr.Stats, float64, error) {
	cfg := vpr.DefaultConfig()
	cfg.Policies = policies
	names := make([]string, cores)
	for i := range names {
		names[i] = wl
	}
	spec := vpr.MulticoreSpec{
		Workloads:          names,
		Config:             cfg,
		L2:                 l2,
		SharedAddressSpace: coherent,
		Coherence:          coherent,
		MaxInstrPerCore:    instr / int64(cores),
	}
	if coherent {
		spec.Protocol, spec.Directory = proto, dir
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := vpr.RunMulticore(spec)
	if err != nil {
		return vpr.Stats{}, 0, err
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(max(res.Stats.Committed, 1))
	return res.Stats, allocs, nil
}

func run(out string, instr, gridInstr int64, workloads []string, policies vpr.Policies,
	cores int, l2 vpr.L2Config, coherentMC bool, proto, dir string, repeat int) error {
	rep := report{
		Schema:     "vpr-bench/v3",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Repeat:     repeat,
	}
	ctx := context.Background()
	schemes := []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback, vpr.SchemeVPIssue}

	// Scheme points: fresh engine, cache off, so every point simulates.
	// Heap allocations are measured around each run (Mallocs is a
	// monotonic count, unaffected by collections).
	eng := vpr.New(vpr.WithCache(0))
	for _, wl := range workloads {
		for _, scheme := range schemes {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Policies = policies
			st, allocs, err := bestOf(repeat, func() (vpr.Stats, float64, error) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				res, err := eng.Run(ctx, vpr.RunSpec{Workload: wl, Config: cfg, MaxInstr: instr})
				if err != nil {
					return vpr.Stats{}, 0, err
				}
				runtime.ReadMemStats(&m1)
				return res.Stats, float64(m1.Mallocs-m0.Mallocs) / float64(max(res.Stats.Committed, 1)), nil
			})
			if err != nil {
				return err
			}
			rep.Schemes = append(rep.Schemes, schemePoint{
				Scheme:         scheme.String(),
				Workload:       wl,
				Instr:          st.Committed,
				IPC:            st.IPC(),
				CyclesPerSec:   st.CyclesPerSec,
				InstrsPerSec:   st.InstrsPerSec,
				AllocsPerInstr: allocs,
			})
			fmt.Printf("%-8s %-10s %9.0f instr/s  %9.0f cycles/s  ipc %.3f  %6.3f allocs/instr\n",
				scheme, wl, st.InstrsPerSec, st.CyclesPerSec, st.IPC(), allocs)
		}
	}

	// Multicore point: N cores behind the banked shared L2 — the
	// throughput the multicore experiment pays per point.
	wl := workloads[0]
	st, allocs, err := bestOf(repeat, func() (vpr.Stats, float64, error) {
		return measureMulticore(wl, policies, cores, l2, coherentMC, proto, dir, instr)
	})
	if err != nil {
		return err
	}
	rep.Multicore = multicorePoint{
		Workload:       wl,
		Cores:          cores,
		L2SizeBytes:    l2.SizeBytes,
		L2Banks:        l2.Banks,
		Instr:          st.Committed,
		IPC:            st.IPC(),
		InstrsPerSec:   st.InstrsPerSec,
		AllocsPerInstr: allocs,
		L2MissRatio:    st.L2MissRatio(),
	}
	fmt.Printf("%-14s %-10s %9.0f instr/s  %9.0f cycles/s  ipc %.3f  %6.3f allocs/instr  l2miss %.3f\n",
		fmt.Sprintf("mc×%d", cores), wl, st.InstrsPerSec, st.CyclesPerSec,
		st.IPC(), allocs, st.L2MissRatio())

	// Coherence points: the directory protocol on the sharing-heavy
	// synthetic workload — cores in one address space writing the same
	// lines, the cost the coherence experiment pays per point. Always
	// recorded (and CI-enforced: l2_invalidations must be nonzero, and
	// the dedicated MOESI point must write back to the L2 strictly less
	// than the default MSI point) so the invalidation path stays on the
	// perf record; a single core has no remote sharers to invalidate, so
	// the points run at least two.
	cohPoint := func(protoSel string) (coherencePoint, error) {
		wl := vpr.SynthWorkloadPrefix + "sharing"
		cohCores := max(cores, 2)
		p, err := vpr.CoherenceProtocolByName(protoSel)
		if err != nil {
			return coherencePoint{}, err
		}
		st, allocs, err := bestOf(repeat, func() (vpr.Stats, float64, error) {
			return measureMulticore(wl, policies, cohCores, l2, true, protoSel, dir, instr)
		})
		if err != nil {
			return coherencePoint{}, err
		}
		pt := coherencePoint{
			Workload:          wl,
			Cores:             cohCores,
			Protocol:          p.Name(),
			Directory:         dir,
			Instr:             st.Committed,
			IPC:               st.IPC(),
			InstrsPerSec:      st.InstrsPerSec,
			AllocsPerInstr:    allocs,
			Invalidations:     st.L2Invalidations,
			BackInvalidations: st.L2BackInvalidations,
			Upgrades:          st.L2Upgrades,
			WritebackForwards: st.L2WritebackForwards,
			OwnerForwards:     st.L2OwnerForwards,
			SilentUpgrades:    st.SilentUpgrades,
		}
		fmt.Printf("%-16s %-10s %9.0f instr/s  %9.0f cycles/s  ipc %.3f  %6.3f allocs/instr  inval %d\n",
			fmt.Sprintf("%s×%d", pt.Protocol, cohCores), wl, st.InstrsPerSec, st.CyclesPerSec,
			st.IPC(), allocs, st.L2Invalidations)
		return pt, nil
	}
	if rep.Coherence, err = cohPoint(proto); err != nil {
		return err
	}
	if rep.CoherenceMOESI, err = cohPoint("moesi"); err != nil {
		return err
	}

	// Harness grid: every catalog workload × scheme, serial vs parallel.
	var specs []vpr.RunSpec
	for _, w := range vpr.Workloads() {
		for _, scheme := range schemes {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Policies = policies
			specs = append(specs, vpr.RunSpec{Workload: w.Name, Config: cfg, MaxInstr: gridInstr})
		}
	}
	timeBatch := func(par int) (float64, float64, error) {
		e := vpr.New(vpr.WithParallelism(par), vpr.WithCache(0))
		start := time.Now()
		results, err := e.RunBatch(ctx, specs)
		if err != nil {
			return 0, 0, err
		}
		secs := time.Since(start).Seconds()
		var committed int64
		for _, r := range results {
			committed += r.Stats.Committed
		}
		return secs, float64(committed) / secs, nil
	}
	par := runtime.GOMAXPROCS(0)
	serialSecs, serialIPS, err := timeBatch(1)
	if err != nil {
		return err
	}
	parSecs, parIPS, err := timeBatch(par)
	if err != nil {
		return err
	}
	rep.Harness = harnessTiming{
		Specs:           len(specs),
		InstrPerSpec:    gridInstr,
		Parallelism:     par,
		SerialSeconds:   serialSecs,
		ParallelSeconds: parSecs,
		SerialInstrsPS:  serialIPS,
		ParallelInstrPS: parIPS,
	}
	fmt.Printf("harness  %d specs: serial %.2fs (%.0f instr/s), par=%d %.2fs (%.0f instr/s)\n",
		len(specs), serialSecs, serialIPS, par, parSecs, parIPS)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
