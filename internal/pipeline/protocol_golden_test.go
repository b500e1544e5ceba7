package pipeline

import (
	"hash/fnv"
	"testing"

	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The golden differential pin for the protocol refactor (PR 10): the
// explicit Protocol="msi" + Directory="fullmap" selection must be
// byte-identical to the hardwired pre-refactor MSI directory. The
// expected values below were captured at the pre-change HEAD (commit
// 82b1758) by running these exact configurations; every architectural
// counter and every per-core commit-stream hash must still match, and
// the counters the refactor introduced (SilentUpgrades, L2OwnerForwards,
// L2DirOverflows, L2DirBroadcasts) must stay exactly zero — struct
// equality over Arch() enforces both at once.
//
// If this test fails, the refactor changed the default protocol's
// behaviour: that is a regression, not a baseline to re-capture.

// goldenGens builds the pinned workload: every core runs synth:sharing
// with Seed=5, truncated to n instructions.
func goldenGens(cores int, n int64) func() []trace.Generator {
	return func() []trace.Generator {
		gens := make([]trace.Generator, cores)
		for i := range gens {
			p := synth.Sharing()
			p.Seed = 5
			gens[i] = trace.Take(synth.New(p), n)
		}
		return gens
	}
}

// streamHash folds a commit stream into the FNV-1a hash of its
// little-endian instruction numbers.
func streamHash(s []int64) uint64 {
	h := fnv.New64a()
	for _, inum := range s {
		var b [8]byte
		for k := 0; k < 8; k++ {
			b[k] = byte(inum >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestProtocolGoldenMSIByteIdentical(t *testing.T) {
	base := Stats{
		Issued: 25411, RenameRegStall: 28716, CondBranches: 2078, Mispredicts: 266,
		Loads: 7214, Stores: 7120, LoadsForwarded: 666, MemViolations: 159,
		SquashedByMem: 3910, CommitSBStalls: 52, CacheAccesses: 34569,
		CacheMisses: 4800, CacheMergedMiss: 944, MSHRStallCycles: 20382,
		PeakMSHRs: 8, L2Fetches: 4800, L2Hits: 4590, L2Misses: 132, L2Merges: 78,
		L2Conflicts: 12327, L2Invalidations: 4547, L2Upgrades: 1719,
		L2WritebackForwards: 4514, ROBOccupancySum: 1856605, IQOccupancySum: 911626,
		IntRegsInUseSum: 2499942, FPRegsInUseSum: 1340704,
		RegLifetimeSum: 2395123, RegsFreed: 17356,
		Cycles: 21044, Committed: 24000,
	}
	shared4 := Stats{
		Issued: 34129, RenameRegStall: 104614, CondBranches: 2773, Mispredicts: 456,
		Loads: 9540, Stores: 9528, LoadsForwarded: 839, MemViolations: 252,
		SquashedByMem: 6438, CommitSBStalls: 333, CacheAccesses: 176662,
		CacheMisses: 11447, CacheMergedMiss: 1614, MSHRStallCycles: 157610,
		PeakMSHRs: 8, L2Fetches: 11447, L2Hits: 11181, L2Misses: 114, L2Merges: 152,
		L2Conflicts: 29226, L2Invalidations: 11132, L2Upgrades: 1656,
		L2WritebackForwards: 8194, ROBOccupancySum: 6600077, IQOccupancySum: 3559655,
		IntRegsInUseSum: 8852096, FPRegsInUseSum: 4729376,
		RegLifetimeSum: 8501613, RegsFreed: 23844,
		Cycles: 37343, Committed: 32000,
	}
	ns2 := Stats{
		Issued: 24984, RenameRegStall: 9818, CondBranches: 2040, Mispredicts: 264,
		Loads: 7214, Stores: 7120, LoadsForwarded: 458, MemViolations: 138,
		SquashedByMem: 3460, CacheAccesses: 14418,
		CacheMisses: 392, CacheMergedMiss: 92, MSHRStallCycles: 158,
		PeakMSHRs: 8, L2Fetches: 392, L2Hits: 128, L2Misses: 264,
		L2Conflicts: 270, L2Upgrades: 166,
		ROBOccupancySum: 732590, IQOccupancySum: 308708,
		IntRegsInUseSum: 1060990, FPRegsInUseSum: 600256,
		RegLifetimeSum: 1001466, RegsFreed: 17034,
		Cycles: 9379, Committed: 24000,
	}
	cases := []struct {
		name   string
		cores  int
		shared bool
		n      int64
		want   Stats
		hash   uint64
	}{
		{"shared2", 2, true, 12000, base, 0x497c0e7bbbd41b25},
		{"shared4", 4, true, 8000, shared4, 0x216fdbcbdb9d54a5},
		{"ns2", 2, false, 12000, ns2, 0x497c0e7bbbd41b25},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ValueCheck = false
			mccfg := MulticoreConfig{
				Cores: c.cores, Core: cfg, L2: mem.DefaultL2Config(),
				SharedAddressSpace: c.shared, Coherence: true,
				Protocol: "msi", Directory: "fullmap",
			}
			res := runMulticore(t, mccfg, goldenGens(c.cores, c.n), 0)
			if got := res.agg.Arch(); got != c.want {
				t.Errorf("MSI/fullmap no longer byte-identical to pre-refactor HEAD:\n got %#v\nwant %#v", got, c.want)
			}
			for i, s := range res.streams {
				if h := streamHash(s); h != c.hash {
					t.Errorf("core %d commit stream hash %#x, want %#x", i, h, c.hash)
				}
			}
		})
	}
}

// TestProtocolDefaultIsMSI: the empty selections resolve to MSI over the
// full map, so the default path is covered by the same pin.
func TestProtocolDefaultIsMSI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ValueCheck = false
	mk := goldenGens(2, 3000)
	run := func(proto, dir string) Stats {
		mccfg := MulticoreConfig{
			Cores: 2, Core: cfg, L2: mem.DefaultL2Config(),
			SharedAddressSpace: true, Coherence: true,
			Protocol: proto, Directory: dir,
		}
		return runMulticore(t, mccfg, mk, 0).agg.Arch()
	}
	if def, named := run("", ""), run("msi", "fullmap"); def != named {
		t.Errorf("default selection differs from explicit msi/fullmap:\n got %#v\nwant %#v", def, named)
	}
}
