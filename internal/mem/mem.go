// Package mem is the shared memory hierarchy extracted from internal/cache
// and the pipeline: a Memory interface the pipeline drives one port of,
// per-core lockup-free L1 caches (L1), a banked finite shared L2 with
// per-bank bus occupancy and MSHR-style refill tracking (BankedL2), and a
// System that wires N L1 ports over one shared L2 for the multi-core
// runner.
//
// The paper's own configuration — one core, lockup-free L1 over an
// infinite L2 — is an L1 with no next level (NewL1(cfg, nil)); every run
// path, single-core, SMT and multi-core, drives this one L1 model. It is
// a line-for-line port of internal/cache's reference Cache with the next
// level abstracted, and a differential test pins the two against each
// other on randomized access streams.
//
// When a System is built coherent, the BankedL2 additionally runs a
// directory under a pluggable invalidation protocol (protocol.go: MSI,
// MESI or MOESI behind the Protocol interface) over a pluggable sharer
// representation (directory.go: full-map bitmask or limited pointers
// behind the Directory interface): stores take ownership through an
// upgrade path that invalidates remote L1 copies (including refills
// still in flight), remote dirty lines are forwarded through the
// per-bank bus before a reader or new owner proceeds, and L2 evictions
// back-invalidate the victim's sharers so the hierarchy stays inclusive.
// Every coherence action sits behind the coherent flag — a non-coherent
// hierarchy is bit-for-bit the pre-coherence one, and the default
// MSI/full-map selection is bit-for-bit the hardwired PR-5 directory
// (golden-pinned) — and all transitions happen synchronously at access
// time, so the lockstep multi-core runner keeps the directory
// deterministic. docs/ARCHITECTURE.md has the protocol tables.
//
// The package is determinism-checked (vplint's detsource analyzer,
// docs/LINTING.md).
//
//vpr:detpkg
package mem

import "repro/internal/cache"

// Memory is one port into the memory hierarchy, as seen by a core's
// execute stage. Access performs a load or store at the given cycle;
// Drain installs every refill completed by the given cycle (accesses
// drain lazily, so calling it is only needed to settle state for
// inspection); Stats snapshots the counters.
//
// Callers must present non-decreasing cycle numbers; implementations
// panic on time going backwards rather than silently corrupting refill
// state.
type Memory interface {
	Access(now int64, addr uint64, write bool) (cache.Outcome, bool)
	Drain(now int64)
	Stats() Stats
}

// Stats are the counters a Memory accumulates: the one list of memory
// counters, which pipeline.Stats embeds, so the field names are the ones
// a run result exposes. The L1 fields mirror cache.Cache's; the L2 fields
// describe the banked shared L2, and are zero on the L1 ports themselves:
// a System reports the shared counters once, so aggregates never
// double-count.
//
//vpr:stats
type Stats struct {
	// L1. Every access counts exactly once as a hit, a merge, an MSHR
	// stall or a primary miss: CacheAccesses == CacheHits +
	// CacheMergedMiss + MSHRStallCycles + CacheMisses.
	CacheAccesses   int64
	CacheHits       int64
	CacheMisses     int64 // primary misses (MSHR allocations)
	CacheMergedMiss int64 // secondary misses folded into an MSHR
	MSHRStallCycles int64 // accesses rejected because every MSHR was busy
	CacheEvictions  int64 // dirty lines written back
	PeakMSHRs       int

	// SilentUpgrades counts stores that found a MESI/MOESI Exclusive
	// copy and took ownership without any directory traffic — the E
	// state's whole payoff. Zero under MSI (it has no E state).
	SilentUpgrades int64

	// L2 (zero on the paper's infinite-L2 machine, which never fetches
	// from an L2).
	L2Fetches    int64 // L1 misses presented to the L2 (hits+misses+merges)
	L2Hits       int64
	L2Misses     int64
	L2Merges     int64 // fetches folded into another core's in-flight refill
	L2WriteBacks int64
	L2Conflicts  int64 // line transfers that found their bank's bus busy

	// Coherence (zero unless the System was built coherent).
	// L2Invalidations counts only ownership-claim messages — upgrades and
	// read-for-ownership fetches invalidating remote sharers — so it is
	// zero whenever cores never share a line (namespaced address
	// spaces). L2BackInvalidations counts the inclusion half: victims an
	// L2 eviction forces out of their sharers' L1s, which happens under
	// pure capacity pressure even without sharing.
	L2Invalidations     int64 // sharing-driven invalidation messages to remote L1s
	L2BackInvalidations int64 // inclusion: L2 victims invalidated out of sharer L1s
	L2Upgrades          int64 // stores that asked the directory for ownership of a present line
	L2WritebackForwards int64 // dirty remote copies forwarded through a bank into the L2

	// Protocol/directory variants (zero under the default MSI/full-map
	// selection, which keeps the golden pins byte-identical).
	// L2OwnerForwards is MOESI's replacement for read-triggered
	// L2WritebackForwards; the Dir counters measure the limited-pointer
	// directory's precision loss and are zero on the exact full map.
	L2OwnerForwards int64 // MOESI: dirty lines forwarded cache-to-cache, kept Owned
	L2DirOverflows  int64 // limited pointers: sets whose sharer count exhausted the budget
	L2DirBroadcasts int64 // limited pointers: invalidation rounds degraded to broadcast
}

// Add accumulates other into s (PeakMSHRs takes the maximum).
//
//vpr:statsink Stats
func (s *Stats) Add(other Stats) {
	s.CacheAccesses += other.CacheAccesses
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.CacheMergedMiss += other.CacheMergedMiss
	s.MSHRStallCycles += other.MSHRStallCycles
	s.CacheEvictions += other.CacheEvictions
	if other.PeakMSHRs > s.PeakMSHRs {
		s.PeakMSHRs = other.PeakMSHRs
	}
	s.SilentUpgrades += other.SilentUpgrades
	s.L2Fetches += other.L2Fetches
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.L2Merges += other.L2Merges
	s.L2WriteBacks += other.L2WriteBacks
	s.L2Conflicts += other.L2Conflicts
	s.L2Invalidations += other.L2Invalidations
	s.L2BackInvalidations += other.L2BackInvalidations
	s.L2Upgrades += other.L2Upgrades
	s.L2WritebackForwards += other.L2WritebackForwards
	s.L2OwnerForwards += other.L2OwnerForwards
	s.L2DirOverflows += other.L2DirOverflows
	s.L2DirBroadcasts += other.L2DirBroadcasts
}
