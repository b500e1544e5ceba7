// Policies demonstrates the pluggable stage-policy and probe surface: it
// sweeps every registered issue-select heuristic over a miss-heavy
// workload with a cycle-level probe attached, then compares the two SMT
// fetch policies on an asymmetric two-thread machine. Policies come out of
// the registry by name — the same names the -fetch/-issue flags of
// cmd/vptables accept.
package main

import (
	"context"
	"fmt"
	"log"

	vpr "repro"
)

// latencyProbe measures how long issued instructions stay in flight by
// pairing Issued and Completed events per (thread, inum). The probe API
// hands observers scalar callbacks straight off the kernel's hot path;
// whatever bookkeeping they build from those is their own. This probe is
// attached per-spec to a single run, so plain fields suffice — an
// engine-wide probe shared by parallel batches would need atomics.
type latencyProbe struct {
	vpr.BaseProbe
	issuedAt map[int64]int64
	sum, n   int64
}

func (p *latencyProbe) Issued(cycle int64, tid int, inum int64) {
	if p.issuedAt == nil {
		p.issuedAt = make(map[int64]int64)
	}
	p.issuedAt[int64(tid)<<48|inum] = cycle
}

func (p *latencyProbe) Completed(cycle int64, tid int, inum int64) {
	key := int64(tid)<<48 | inum
	if at, ok := p.issuedAt[key]; ok {
		p.sum += cycle - at
		p.n++
		delete(p.issuedAt, key)
	}
}

func (p *latencyProbe) mean() float64 {
	if p.n == 0 {
		return 0
	}
	return float64(p.sum) / float64(p.n)
}

func main() {
	ctx := context.Background()
	const instr = 50_000

	fmt.Println("issue-select heuristics on swim (vp-issue, 48 regs, NRR 8):")
	for _, info := range vpr.IssueSelects() {
		sel, _ := vpr.IssueSelectByName(info.Name)
		probe := &latencyProbe{}
		cfg := vpr.DefaultConfig()
		cfg.Scheme = vpr.SchemeVPIssue
		cfg.Rename.PhysRegs = 48
		cfg.Rename.NRRInt, cfg.Rename.NRRFP = 8, 8
		cfg.Policies.Issue = sel
		cfg.Policies.Probe = probe

		res, err := vpr.New().Run(ctx, vpr.RunSpec{Workload: "swim", Config: cfg, MaxInstr: instr})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s IPC %.3f  issue blocks %6d  mean issue→complete %.1f cycles\n",
			info.Name, res.Stats.IPC(), res.Stats.IssueBlocks, probe.mean())
	}

	fmt.Println("\nSMT fetch policies, compress+swim sharing the machine (vp-wb, 2 threads):")
	for _, info := range vpr.FetchPolicies() {
		pol, _ := vpr.FetchPolicyByName(info.Name)
		cfg := vpr.DefaultConfig()
		cfg.Scheme = vpr.SchemeVPWriteback
		cfg.Rename.PhysRegs = 96
		cfg.Rename.NRRInt, cfg.Rename.NRRFP = 16, 16
		cfg.Policies.Fetch = pol

		res, err := vpr.New().RunSMT(ctx, vpr.SMTSpec{
			Workloads:         []string{"compress", "swim"},
			Config:            cfg,
			MaxInstrPerThread: instr / 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s aggregate IPC %.3f  per-thread %v\n",
			info.Name, res.Stats.IPC(), res.PerThreadCommitted)
	}
}
