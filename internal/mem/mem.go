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

// Stats are the counters a Memory accumulates. The L1 fields mirror
// cache.Cache's; the L2 fields describe the banked shared L2, and are zero
// on the L1 ports themselves: a System reports the shared counters once,
// so aggregates never double-count.
//
//vpr:stats
type Stats struct {
	// L1.
	Accesses     int64
	Hits         int64
	Misses       int64 // primary misses (MSHR allocations)
	Merges       int64 // secondary misses folded into an MSHR
	MSHRStalls   int64 // accesses rejected because every MSHR was busy
	Evictions    int64 // dirty lines written back
	PeakInFlight int

	// SilentUpgrades counts stores that found a MESI/MOESI Exclusive
	// copy and took ownership without any directory traffic — the E
	// state's whole payoff. Zero under MSI (it has no E state).
	SilentUpgrades int64

	// L2.
	L2Fetches    int64
	L2Hits       int64
	L2Misses     int64
	L2Merges     int64 // fetches folded into an in-flight refill (cross-core)
	L2WriteBacks int64
	L2Conflicts  int64 // fetches/write-backs that found the bank bus busy

	// Coherence (zero unless the System was built coherent).
	L2Invalidations     int64 // sharing-driven invalidation messages to remote L1s
	L2BackInvalidations int64 // inclusion: L2 victims invalidated out of sharer L1s
	L2Upgrades          int64 // S→M ownership requests for present lines
	L2WritebackForwards int64 // dirty remote copies forwarded through a bank

	// Protocol/directory variants (zero under the default MSI/full-map
	// selection, which keeps the golden pins byte-identical).
	L2OwnerForwards int64 // MOESI: dirty lines forwarded cache-to-cache, kept Owned
	L2DirOverflows  int64 // limited pointers: sets that exhausted their budget
	L2DirBroadcasts int64 // limited pointers: invalidation rounds degraded to broadcast
}

// Add accumulates other into s (PeakInFlight takes the maximum).
//
//vpr:statsink Stats
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Merges += other.Merges
	s.MSHRStalls += other.MSHRStalls
	s.Evictions += other.Evictions
	if other.PeakInFlight > s.PeakInFlight {
		s.PeakInFlight = other.PeakInFlight
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
