package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
)

// MemStats is the memory hierarchy's counter list (L1, shared L2,
// coherence), embedded in Stats under this name.
type MemStats = mem.Stats

// Stats aggregates everything a run measures. IPC (committed instructions
// per cycle) is the paper's headline metric; the register-pressure and
// re-execution numbers support its secondary claims.
//
// Each layer owns its counter list and Stats embeds it, so every counter
// is a promoted field (st.RenameRegStall, st.CacheMisses, st.WallSeconds):
// core.Stats is the renamer's, MemStats the memory hierarchy's and
// Throughput the host's. The fields declared here are the pipeline's own.
//
//vpr:stats
type Stats struct {
	Cycles    int64
	Committed int64
	Issued    int64 // issue events, counting re-executions

	// Renaming: the renamer's counters (register-file stalls, early
	// releases, VP re-executions and issue blocks, register lifetimes).
	core.Stats
	ROBStalls int64 // decode stalls on a full reorder buffer
	IQStalls  int64 // decode stalls on a full instruction queue

	// Branches.
	CondBranches int64
	Mispredicts  int64

	// Memory: the pipeline's load/store counters, then the hierarchy's
	// (L1; the banked shared L2, zero on the paper's infinite-L2 machine
	// and folded in once, by Multicore.Aggregate, not per core; and
	// coherence over it, zero unless MulticoreConfig.Coherence is set).
	Loads          int64
	Stores         int64
	LoadsForwarded int64
	MemViolations  int64 // speculative disambiguation squashes
	SquashedByMem  int64 // instructions flushed by those squashes
	CommitSBStalls int64 // commit blocked on a full store buffer
	MemStats

	// Occupancy integrals (divide by Cycles for averages).
	ROBOccupancySum int64
	IQOccupancySum  int64
	IntRegsInUseSum int64
	FPRegsInUseSum  int64

	// Host-side simulator throughput, excluded from Arch().
	Throughput
}

// Throughput is the kernel's host-side speed: wall-clock time accumulated
// inside the run loop and the derived simulation rates. It measures the
// simulator, not the simulated machine — it varies run to run, which is
// why Arch(), the architectural view determinism and differential tests
// compare, zeroes it.
type Throughput struct {
	WallSeconds  float64
	CyclesPerSec float64
	InstrsPerSec float64
}

// throughput derives the rates of a run that simulated cycles and
// committed instructions in wallNanos of host time (zero if none was
// measured).
func throughput(wallNanos, cycles, committed int64) Throughput {
	if wallNanos <= 0 {
		return Throughput{}
	}
	secs := float64(wallNanos) / 1e9
	return Throughput{
		WallSeconds:  secs,
		CyclesPerSec: float64(cycles) / secs,
		InstrsPerSec: float64(committed) / secs,
	}
}

// Arch returns the architectural statistics only: Throughput, which
// depends on host wall-clock time, is zeroed. Two runs of the same
// workload and configuration produce identical Arch() values.
func (s Stats) Arch() Stats {
	s.Throughput = Throughput{}
	return s
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// ExecPerCommit returns how many times the average committed instruction
// was executed (1.0 = no re-execution; the paper reports 3.3 for the VP
// write-back scheme on its workloads).
func (s Stats) ExecPerCommit() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Committed)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// MissRatio returns primary+merged cache misses per access.
func (s Stats) MissRatio() float64 {
	if s.CacheAccesses == 0 {
		return 0
	}
	return float64(s.CacheMisses+s.CacheMergedMiss) / float64(s.CacheAccesses)
}

// L2MissRatio returns second-level misses per L2 fetch (0 on the paper's
// infinite-L2 machine, which never fetches from an L2).
func (s Stats) L2MissRatio() float64 {
	if s.L2Fetches == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Fetches)
}

// AvgRegLifetime returns the mean number of cycles a physical register was
// held per produced value — the paper's §3.1 register-pressure metric.
// Late allocation exists to shrink exactly this number.
func (s Stats) AvgRegLifetime() float64 {
	return avgOver(s.RegLifetimeSum, s.RegsFreed)
}

// AvgROB returns the average reorder-buffer occupancy.
func (s Stats) AvgROB() float64 { return avgOver(s.ROBOccupancySum, s.Cycles) }

// AvgIQ returns the average instruction-queue occupancy.
func (s Stats) AvgIQ() float64 { return avgOver(s.IQOccupancySum, s.Cycles) }

// AvgIntRegs returns the average number of allocated integer registers.
func (s Stats) AvgIntRegs() float64 { return avgOver(s.IntRegsInUseSum, s.Cycles) }

// AvgFPRegs returns the average number of allocated FP registers.
func (s Stats) AvgFPRegs() float64 { return avgOver(s.FPRegsInUseSum, s.Cycles) }

func avgOver(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cycles=%d committed=%d ipc=%.3f exec/commit=%.2f mispred=%.3f missratio=%.3f avgROB=%.1f avgIntRegs=%.1f avgFPRegs=%.1f reexec=%d violations=%d",
		s.Cycles, s.Committed, s.IPC(), s.ExecPerCommit(), s.MispredictRate(),
		s.MissRatio(), s.AvgROB(), s.AvgIntRegs(), s.AvgFPRegs(),
		s.Reexecutions, s.MemViolations)
}
