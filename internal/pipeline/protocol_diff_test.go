package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// The cross-protocol differential: coherence protocols trade traffic for
// latency, so cycle counts may differ — but every selection must commit
// exactly the same instructions in the same per-core order, with every
// operand value checked against the trace (ValueCheck stays on). A
// protocol that corrupts, loses or duplicates work cannot pass; one that
// deadlocks times out.

// protoCombos is the selection grid the differentials sweep: every
// protocol over the full map, plus the pointer-limited variants that
// force overflow broadcasts into the same workload.
var protoCombos = []struct{ proto, dir string }{
	{"msi", "fullmap"},
	{"mesi", "fullmap"},
	{"moesi", "fullmap"},
	{"mesi", "limited:2"},
	{"moesi", "limited:4"},
}

func protoMCConfig(cores int, proto, dir string) MulticoreConfig {
	return MulticoreConfig{
		Cores: cores, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
		SharedAddressSpace: true, Coherence: true,
		Protocol: proto, Directory: dir,
	}
}

// TestCrossProtocolCommittedStreamsIdentical runs the pinned sharing
// workload at 1–8 cores under every protocol/directory selection and
// requires bit-identical per-core commit streams across all of them.
func TestCrossProtocolCommittedStreamsIdentical(t *testing.T) {
	cases := []struct {
		cores int
		n     int64
	}{
		{1, 6000}, {2, 6000}, {4, 3000}, {8, 1500},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("cores%d", c.cores), func(t *testing.T) {
			var want [][]int64
			for i, sel := range protoCombos {
				res := runMulticore(t, protoMCConfig(c.cores, sel.proto, sel.dir), goldenGens(c.cores, c.n), 0)
				if res.agg.Committed != int64(c.cores)*c.n {
					t.Errorf("%s/%s: committed %d instructions, want %d",
						sel.proto, sel.dir, res.agg.Committed, int64(c.cores)*c.n)
				}
				if i == 0 {
					want = res.streams
					continue
				}
				for core := range res.streams {
					if len(res.streams[core]) != len(want[core]) {
						t.Errorf("%s/%s: core %d committed %d instructions, msi committed %d",
							sel.proto, sel.dir, core, len(res.streams[core]), len(want[core]))
						continue
					}
					for j := range res.streams[core] {
						if res.streams[core][j] != want[core][j] {
							t.Errorf("%s/%s: core %d commit stream diverges from msi at position %d (%d != %d)",
								sel.proto, sel.dir, core, j, res.streams[core][j], want[core][j])
							break
						}
					}
				}
			}
		})
	}
}

// TestProtocolTrafficSignatures checks each protocol produces the traffic
// shape it exists for, on the same workload the goldens pin: MESI lives
// off silent E→M upgrades, MOESI converts read-triggered write-back
// forwards into cache-to-cache owner forwards and therefore writes back
// to the L2 strictly less than MSI.
func TestProtocolTrafficSignatures(t *testing.T) {
	run := func(proto, dir string) Stats {
		return runMulticore(t, protoMCConfig(4, proto, dir), goldenGens(4, 3000), 0).agg
	}
	msi := run("msi", "fullmap")
	mesi := run("mesi", "fullmap")
	moesi := run("moesi", "fullmap")

	if msi.SilentUpgrades != 0 || msi.L2OwnerForwards != 0 || msi.L2DirOverflows != 0 {
		t.Errorf("msi must not use the new machinery: silent=%d own=%d overflow=%d",
			msi.SilentUpgrades, msi.L2OwnerForwards, msi.L2DirOverflows)
	}
	if mesi.SilentUpgrades == 0 {
		t.Error("mesi never upgraded silently on a sharing workload")
	}
	if mesi.L2OwnerForwards != 0 {
		t.Errorf("mesi must not owner-forward, counted %d", mesi.L2OwnerForwards)
	}
	if moesi.L2OwnerForwards == 0 {
		t.Error("moesi never forwarded a dirty line cache-to-cache")
	}
	if moesi.L2WritebackForwards >= msi.L2WritebackForwards {
		t.Errorf("moesi L2 write-back forwards (%d) must be strictly below msi's (%d) — Owned exists to avoid them",
			moesi.L2WritebackForwards, msi.L2WritebackForwards)
	}
	// The limited-pointer directory must lose precision under 4 sharing
	// cores and still complete (streams already pinned above).
	lim := run("mesi", "limited:2")
	if lim.L2DirOverflows == 0 || lim.L2DirBroadcasts == 0 {
		t.Errorf("limited:2 under 4 sharing cores never overflowed (overflows=%d broadcasts=%d)",
			lim.L2DirOverflows, lim.L2DirBroadcasts)
	}
}
