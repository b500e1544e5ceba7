package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// MulticoreConfig describes a multi-core machine: N identical cores, each
// a full single-thread pipeline (Core), optionally sharing a banked
// finite L2 (L2.Enabled). With the shared L2 disabled every core keeps
// its private Core.Cache hierarchy — with one core that is exactly the
// paper's machine, and Multicore produces byte-identical statistics to
// Sim.
//
//vpr:cachekey
type MulticoreConfig struct {
	Cores int
	Core  Config
	L2    mem.L2Config

	// SharedAddressSpace puts every core in one address space instead of
	// namespacing them (mem.CoreAddrShift): cores touching the same
	// addresses then share L2 lines and merge into each other's in-flight
	// refills — the shared-data scenario. The default (false) models
	// private memories: no aliasing, no sharing.
	SharedAddressSpace bool

	// Step names the stepping mode. The serial lockstep loop is the only
	// runner, so "" and StepLockstep are the only accepted values.
	Step StepMode

	// Coherence activates the directory over the shared L2: stores
	// invalidate remote L1 copies through an ownership/upgrade path,
	// remote dirty lines are forwarded through the bank bus, and L2
	// evictions back-invalidate their sharers (inclusive hierarchy). Off
	// (the default), runs are byte-identical to the coherence-free
	// hierarchy — no directory state exists and no invalidation traffic
	// is modelled, exactly the PR-4 behaviour. Requires L2.Enabled. The
	// traffic appears in Stats as L2Invalidations /
	// L2BackInvalidations / L2Upgrades / L2WritebackForwards; the
	// sharing-driven L2Invalidations are only nonzero when cores actually
	// share lines (SharedAddressSpace), while upgrades and inclusion
	// back-invalidations occur on namespaced runs too.
	Coherence bool

	// Protocol selects the registered coherence protocol ("msi", "mesi",
	// "moesi"; "" = msi, which is golden-pinned byte-identical to the
	// hardwired pre-refactor directory). Only meaningful — and only
	// accepted — with Coherence set.
	Protocol string

	// Directory selects the registered sharer representation ("fullmap",
	// "limited", "limited:N"; "" = fullmap). The full map is exact but
	// capped at 64 cores; limited pointers degrade overflowing sets to
	// broadcast and have no core cap. Only accepted with Coherence set.
	Directory string
}

// StepMode names a Multicore stepping strategy. The serial lockstep loop
// is the only one: MulticoreConfig.Validate accepts "" and StepLockstep
// and rejects everything else.
type StepMode string

// StepLockstep steps every core serially in index order each cycle. The
// empty string means the same thing.
const StepLockstep StepMode = "lockstep"

// DefaultMulticoreConfig is n copies of the paper's core over the default
// banked shared L2.
func DefaultMulticoreConfig(n int) MulticoreConfig {
	return MulticoreConfig{Cores: n, Core: DefaultConfig(), L2: mem.DefaultL2Config()}
}

// Validate rejects configurations the runner cannot honour.
func (c MulticoreConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("pipeline: need at least one core, have %d", c.Cores)
	}
	if c.Coherence && !c.L2.Enabled {
		return fmt.Errorf("pipeline: coherence needs the shared L2 (L2.Enabled)")
	}
	if !c.Coherence && (c.Protocol != "" || c.Directory != "") {
		return fmt.Errorf("pipeline: Protocol/Directory selections need Coherence enabled")
	}
	if _, err := mem.ProtocolByName(c.Protocol); err != nil {
		return err
	}
	if err := mem.ParseDirectoryKind(c.Directory); err != nil {
		return err
	}
	if c.Step != "" && c.Step != StepLockstep {
		return fmt.Errorf("pipeline: step mode %q: the concurrent multicore stepper was removed; lockstep (%q or \"\") is the only runner",
			string(c.Step), StepLockstep)
	}
	return c.Core.Validate()
}

// Multicore steps N single-thread Sims in cycle-lockstep against a shared
// memory hierarchy. Within a cycle the cores run in index order, which —
// together with the lockstep — makes the shared L2 state, and therefore
// every statistic, deterministic and independent of host parallelism.
// (Engine-level sharding across host threads happens between independent
// Multicore runs, never inside one.)
type Multicore struct {
	cfg   MulticoreConfig
	cores []*Sim
	sys   *mem.System // nil when the shared L2 is disabled

	// Live-core tracking: drained[i] is set the first time core i reports
	// Done, decrementing liveCount, so Done() is O(1) once everything has
	// drained and the run loop never rescans finished cores.
	drained   []bool
	liveCount int
	// liveBuf is reused index scratch for the run loop.
	liveBuf []int

	wallNanos int64
}

// NewMulticore builds the machine, one trace generator per core.
func NewMulticore(cfg MulticoreConfig, gens []trace.Generator) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) != cfg.Cores {
		return nil, fmt.Errorf("pipeline: %d cores need %d traces, have %d", cfg.Cores, cfg.Cores, len(gens))
	}
	m := &Multicore{cfg: cfg}
	m.drained = make([]bool, cfg.Cores)
	m.liveCount = cfg.Cores
	m.liveBuf = make([]int, 0, cfg.Cores)
	if cfg.L2.Enabled {
		sys, err := mem.NewSystem(mem.L1FromCacheConfig(cfg.Core.Cache), cfg.L2, cfg.Cores,
			cfg.SharedAddressSpace, mem.CoherenceConfig{
				Enabled:   cfg.Coherence,
				Protocol:  cfg.Protocol,
				Directory: cfg.Directory,
			})
		if err != nil {
			return nil, err
		}
		sys.EnableStrictCoreOrder()
		m.sys = sys
	}
	for i := 0; i < cfg.Cores; i++ {
		var port Memory // nil: a private L1 over an infinite L2
		if m.sys != nil {
			port = m.sys.Port(i)
		}
		core, err := newSMTMem(cfg.Core, []trace.Generator{gens[i]}, false, port)
		if err != nil {
			return nil, fmt.Errorf("pipeline: core %d: %w", i, err)
		}
		m.cores = append(m.cores, core)
	}
	return m, nil
}

// Cores returns the number of cores.
func (m *Multicore) Cores() int { return len(m.cores) }

// Core exposes one core's simulator (probes, renamer statistics).
func (m *Multicore) Core(i int) *Sim { return m.cores[i] }

// System exposes the shared memory hierarchy (nil when the shared L2 is
// disabled).
func (m *Multicore) System() *mem.System { return m.sys }

// noteDrained marks core i as drained exactly once, maintaining the
// live-core count.
func (m *Multicore) noteDrained(i int) {
	if !m.drained[i] {
		m.drained[i] = true
		m.liveCount--
	}
}

// Done reports whether every core has drained its trace. Once every core
// has been seen drained the answer is a counter read; until then only the
// cores not yet marked are consulted (draining is irreversible).
func (m *Multicore) Done() bool {
	if m.liveCount == 0 {
		return true
	}
	for i, c := range m.cores {
		if m.drained[i] {
			continue
		}
		if !c.Done() {
			return false
		}
		m.noteDrained(i)
	}
	return m.liveCount == 0
}

// CoreStats snapshots one core's statistics (local L1 counters; the
// shared L2's appear once, in Aggregate).
func (m *Multicore) CoreStats(i int) Stats { return m.cores[i].Stats() }

// Run advances every core until all traces drain or each core commits
// maxCommitsPerCore instructions, and returns the aggregate statistics.
func (m *Multicore) Run(maxCommitsPerCore int64) (Stats, error) {
	return m.RunContext(context.Background(), maxCommitsPerCore)
}

// RunContext is Run under a context: cancellation stops the run between
// cycles and surfaces ctx.Err().
//
//vpr:wallclock host-throughput accounting only; never feeds simulated state
func (m *Multicore) RunContext(ctx context.Context, maxCommitsPerCore int64) (Stats, error) {
	start := time.Now()
	err := m.runLoop(ctx, maxCommitsPerCore)
	m.wallNanos += time.Since(start).Nanoseconds()
	return m.Aggregate(), err
}

//vpr:hotpath
func (m *Multicore) runLoop(ctx context.Context, maxCommitsPerCore int64) error {
	// live holds the indices of the cores still stepping; a core leaves
	// the moment it drains or hits its commit cap and is never rescanned.
	// In-place compaction preserves index order, which the determinism
	// contract fixes as the in-cycle order of shared-memory interactions.
	live := m.liveBuf[:cap(m.liveBuf)]
	n := 0
	for i, c := range m.cores {
		if c.Done() {
			m.noteDrained(i)
			continue
		}
		if maxCommitsPerCore > 0 && c.stats.Committed >= maxCommitsPerCore {
			continue
		}
		live[n] = i
		n++
	}
	live = live[:n]
	sinceCheck := 0
	for len(live) > 0 {
		if sinceCheck++; sinceCheck >= ctxCheckCycles {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w := 0
		for _, i := range live {
			c := m.cores[i]
			if err := c.Step(); err != nil {
				//vpr:allowalloc error path: the failed run allocates once and stops
				return fmt.Errorf("pipeline: core %d: %w", i, err)
			}
			if c.Done() {
				m.noteDrained(i)
				continue
			}
			if maxCommitsPerCore > 0 && c.stats.Committed >= maxCommitsPerCore {
				continue
			}
			live[w] = i
			w++
		}
		live = live[:w]
	}
	return nil
}

// Aggregate sums the per-core statistics: counters add, cycles and peak
// occupancies take the maximum, and with a shared hierarchy the memory
// counters are the System's, which sums every L1 and counts the shared
// L2 exactly once. Throughput reflects the lockstep loop's host
// wall-clock.
//
//vpr:statsink Stats
func (m *Multicore) Aggregate() Stats {
	var agg Stats
	for _, c := range m.cores {
		addStats(&agg, c.Stats())
	}
	if m.sys != nil {
		agg.MemStats = m.sys.Stats()
	}
	agg.Throughput = throughput(m.wallNanos, agg.Cycles, agg.Committed)
	return agg
}

// addStats accumulates one core's statistics into agg: Cycles and the
// peak-occupancy gauge take the maximum (the cores run in lockstep),
// everything else adds.
//
//vpr:statsink Stats
func addStats(agg *Stats, st Stats) {
	if st.Cycles > agg.Cycles {
		agg.Cycles = st.Cycles
	}
	agg.Committed += st.Committed
	agg.Issued += st.Issued
	agg.Stats.Add(st.Stats)
	agg.ROBStalls += st.ROBStalls
	agg.IQStalls += st.IQStalls
	agg.CondBranches += st.CondBranches
	agg.Mispredicts += st.Mispredicts
	agg.Loads += st.Loads
	agg.Stores += st.Stores
	agg.LoadsForwarded += st.LoadsForwarded
	agg.MemViolations += st.MemViolations
	agg.SquashedByMem += st.SquashedByMem
	agg.CommitSBStalls += st.CommitSBStalls
	agg.MemStats.Add(st.MemStats)
	agg.ROBOccupancySum += st.ROBOccupancySum
	agg.IQOccupancySum += st.IQOccupancySum
	agg.IntRegsInUseSum += st.IntRegsInUseSum
	agg.FPRegsInUseSum += st.FPRegsInUseSum
}
