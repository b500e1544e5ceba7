package mem

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cache"
)

func l1cfg() L1Config {
	return L1Config{
		SizeBytes:        16 * 1024,
		LineBytes:        32,
		HitLatency:       2,
		MissPenalty:      50,
		MSHRs:            8,
		BusCyclesPerLine: 4,
	}
}

// TestL1MatchesCacheInfinite pins the new L1 against the original
// cache.Cache in the paper's infinite-L2 mode on randomized access
// streams: every outcome, every acceptance decision and every counter
// must be identical.
func TestL1MatchesCacheInfinite(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := cache.New(cache.DefaultConfig())
		l1, err := NewL1(l1cfg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		compareStreams(t, seed, c, l1)
		want := Stats{
			Accesses:     c.Accesses,
			Hits:         c.Hits,
			Misses:       c.Misses,
			Merges:       c.Merges,
			MSHRStalls:   c.MSHRStalls,
			Evictions:    c.Evictions,
			PeakInFlight: c.PeakInFlight,
		}
		if got := l1.Stats(); got != want {
			t.Fatalf("seed %d: counters diverge:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestL1MatchesCacheFiniteL2 pins the L1 + single-bank BankedL2 (bank bus
// disabled) — the private finite L2 behind one core — against the
// private-L2 tag-array mode cache.Cache used to carry. That mode is gone;
// the values below were captured from it on these exact streams (64 KB
// L2, 100-cycle memory latency): its L2 hit and miss counts, and the
// FNV-1a hash of every access outcome (see outcomeHash). The banked L2
// must keep reproducing them.
func TestL1MatchesCacheFiniteL2(t *testing.T) {
	pins := []struct {
		l2Hits, l2Misses int64
		outcomes         uint64
	}{
		{275, 2060, 0x739187533f3daf62},
		{249, 2106, 0xfc11da8d89c6116f},
		{270, 2074, 0x2598b8401b32cb4e},
		{275, 2056, 0xe13ce4ab2c93af1e},
	}
	for i, pin := range pins {
		seed := int64(i + 1)
		l2, err := NewBankedL2(L2Config{
			Enabled:       true,
			SizeBytes:     64 * 1024,
			Banks:         1,
			HitPenalty:    l1cfg().MissPenalty,
			MissPenalty:   100,
			BankBusCycles: 0,
		}, l1cfg().LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := NewL1(l1cfg(), l2)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, a := range randomStream(seed) {
			out, ok := l1.Access(a.now, a.addr, a.write)
			outcomeHash(h, out, ok)
		}
		if h.Sum64() != pin.outcomes {
			t.Errorf("seed %d: outcome hash %#x, want %#x", seed, h.Sum64(), pin.outcomes)
		}
		if l2.Hits != pin.l2Hits || l2.Misses != pin.l2Misses {
			t.Errorf("seed %d: L2 hits/misses %d/%d, want %d/%d",
				seed, l2.Hits, l2.Misses, pin.l2Hits, pin.l2Misses)
		}
	}
}

// outcomeHash folds one access outcome into h: ReadyAt little-endian,
// then a flag byte (hit, merged, accepted).
func outcomeHash(h hash.Hash64, out cache.Outcome, ok bool) {
	var b [9]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(out.ReadyAt >> (8 * k))
	}
	if out.Hit {
		b[8] |= 1
	}
	if out.Merged {
		b[8] |= 2
	}
	if ok {
		b[8] |= 4
	}
	h.Write(b[:])
}

// streamAccess is one element of a randomized access stream.
type streamAccess struct {
	now   int64
	addr  uint64
	write bool
}

// randomStream is the seed's randomized access stream: hot and cold
// lines, reads and writes, idle gaps.
func randomStream(seed int64) []streamAccess {
	rng := rand.New(rand.NewSource(seed))
	stream := make([]streamAccess, 0, 20_000)
	now := int64(0)
	for i := 0; i < 20_000; i++ {
		now += int64(rng.Intn(4))
		var addr uint64
		switch rng.Intn(3) {
		case 0: // hot resident set
			addr = uint64(rng.Intn(64)) * 32
		case 1: // L1-conflicting, L2-sized set
			addr = uint64(rng.Intn(2048)) * 32
		default: // cold streaming
			addr = uint64(1<<24) + uint64(i)*32
		}
		stream = append(stream, streamAccess{now, addr, rng.Intn(4) == 0})
	}
	return stream
}

// compareStreams drives both hierarchies with the seed's randomized
// access stream and fails on the first divergent outcome.
func compareStreams(t *testing.T, seed int64, c *cache.Cache, l1 *L1) {
	t.Helper()
	for i, a := range randomStream(seed) {
		wantOut, wantOK := c.Access(a.now, a.addr, a.write)
		gotOut, gotOK := l1.Access(a.now, a.addr, a.write)
		if wantOut != gotOut || wantOK != gotOK {
			t.Fatalf("seed %d access %d (now %d addr %#x write %v): cache (%+v,%v) vs L1 (%+v,%v)",
				seed, i, a.now, a.addr, a.write, wantOut, wantOK, gotOut, gotOK)
		}
	}
}

// TestDirtyEvictionCost: writing a line and then conflicting it out pays
// the write-back — the eviction is counted, the victim lands in the L2,
// and the L1 bus time it reserves delays the refill behind it (visible
// with penalties small enough not to dominate the bus).
func TestDirtyEvictionCost(t *testing.T) {
	cfg := l1cfg()
	const conflictStride = 16 * 1024 // same L1 set, different tag
	evict := func(write bool) (refillAt int64, l1 *L1, l2 *BankedL2) {
		t.Helper()
		l2, err := NewBankedL2(L2Config{Enabled: true, SizeBytes: 64 * 1024, Banks: 1,
			HitPenalty: 2, MissPenalty: 4, BankBusCycles: 0}, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		l1, err = NewL1(cfg, l2)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := l1.Access(0, 0, write)
		conf, _ := l1.Access(out.ReadyAt+100, conflictStride, false)
		return conf.ReadyAt - (out.ReadyAt + 100), l1, l2
	}
	dirtyDelta, l1, l2 := evict(true)
	if got := l1.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if l2.WriteBacks != 1 {
		t.Fatalf("L2 write-backs = %d, want 1", l2.WriteBacks)
	}
	cleanDelta, _, _ := evict(false)
	if dirtyDelta <= cleanDelta {
		t.Fatalf("dirty eviction must cost bus time: dirty refill +%d vs clean +%d", dirtyDelta, cleanDelta)
	}
	// The written-back victim is an L2 hit on re-fetch (inclusive L2).
	refetch, _ := l1.Access(1_000_000, 0, false)
	if refetch.Hit {
		t.Fatal("victim must have left the L1")
	}
	if l2.Hits != 1 {
		t.Fatalf("re-fetch of the written-back victim: L2 hits = %d, want 1", l2.Hits)
	}
}

// TestL2ConflictEviction: two lines mapping to the same L2 set evict each
// other — the second fetch of the first line misses both levels again.
func TestL2ConflictEviction(t *testing.T) {
	cfg := l1cfg()
	const l2Size = 64 * 1024
	l2, err := NewBankedL2(L2Config{Enabled: true, SizeBytes: l2Size, Banks: 1,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 0}, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewL1(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	step := func(addr uint64) {
		out, ok := l1.Access(now, addr, false)
		if !ok {
			t.Fatalf("unexpected MSHR stall at %#x", addr)
		}
		now = out.ReadyAt + 1
	}
	step(0)          // L2 miss, installs set 0
	step(l2Size)     // same L2 set, different tag: L2 miss, evicts line 0 from L2
	step(16 * 1024)  // conflict line 0 out of the L1 (same L1 set)
	step(2 * l2Size) // conflict the L1 again so line 0 is long gone
	step(0)          // L1 miss AND L2 miss again: the L2 copy was evicted
	if l2.Misses != 5 || l2.Hits != 0 {
		t.Fatalf("L2 hits/misses = %d/%d, want 0/5 (conflict eviction)", l2.Hits, l2.Misses)
	}
}

// TestBankBusConflictsDelayRefills: with one bank and a slow bank bus,
// back-to-back misses queue behind each other's line transfers and the
// conflicts are counted.
func TestBankBusConflictsDelayRefills(t *testing.T) {
	cfg := l1cfg()
	l2, err := NewBankedL2(L2Config{Enabled: true, SizeBytes: 64 * 1024, Banks: 1,
		HitPenalty: 2, MissPenalty: 4, BankBusCycles: 40}, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewL1(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := l1.Access(0, 0, false)
	b, _ := l1.Access(0, 1<<20, false)
	if l2.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", l2.Conflicts)
	}
	if want := int64(80); b.ReadyAt < want {
		t.Fatalf("second refill at %d, want >= %d (queued behind the first transfer)", b.ReadyAt, want)
	}
	if b.ReadyAt <= a.ReadyAt {
		t.Fatalf("refills must serialize on the bank bus: %d then %d", a.ReadyAt, b.ReadyAt)
	}
}

// TestCrossCoreRefillMerge: two L1s sharing one L2 in the same address
// space — a second core fetching a line already on its way from memory
// merges into the in-flight refill instead of paying a second full miss.
func TestCrossCoreRefillMerge(t *testing.T) {
	cfg := l1cfg()
	l2, err := NewBankedL2(L2Config{Enabled: true, SizeBytes: 64 * 1024, Banks: 2,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 4}, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewL1(cfg, l2)
	b, _ := NewL1(cfg, l2)
	outA, _ := a.Access(0, 0x1000, false)
	outB, _ := b.Access(1, 0x1000, false)
	if l2.Merges != 1 || l2.Misses != 1 {
		t.Fatalf("merges/misses = %d/%d, want 1/1", l2.Merges, l2.Misses)
	}
	// The merged core cannot complete before the refill it joined, and is
	// far cheaper than a second full miss.
	if outB.ReadyAt > outA.ReadyAt+int64(cfg.BusCyclesPerLine)+4 {
		t.Fatalf("merged fetch at %d vs refill at %d: should ride the in-flight refill", outB.ReadyAt, outA.ReadyAt)
	}
}

// TestSystemNamespacesCores: by default, ports of a System run identical
// virtual address spaces but must not alias in the shared L2; in
// shared-address-space mode the same access pattern shares lines and
// merges refills.
func TestSystemNamespacesCores(t *testing.T) {
	l2geom := L2Config{Enabled: true, SizeBytes: 64 * 1024, Banks: 4,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 0}
	sys, err := NewSystem(l1cfg(), l2geom, 2, false, CoherenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Port(0).Access(0, 0x2000, false)
	sys.Port(1).Access(0, 0x2000, false)
	l2 := sys.L2()
	if l2.Misses != 2 || l2.Merges != 0 {
		t.Fatalf("same VA on two cores: L2 misses/merges = %d/%d, want 2/0 (namespaced)", l2.Misses, l2.Merges)
	}
	if got := sys.Stats().Accesses; got != 2 {
		t.Fatalf("system accesses = %d, want 2", got)
	}

	shared, err := NewSystem(l1cfg(), l2geom, 2, true, CoherenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shared.Port(0).Access(0, 0x2000, false)
	shared.Port(1).Access(0, 0x2000, false)
	if l2 := shared.L2(); l2.Misses != 1 || l2.Merges != 1 {
		t.Fatalf("shared address space: L2 misses/merges = %d/%d, want 1/1 (refill merged)", l2.Misses, l2.Merges)
	}
}

// TestNamespacedCoresDoNotEvictEachOther is the regression test for the
// L2 index hash: the namespace bits sit above the raw bank/set index
// bits, so without hashing them back in, cores running the same virtual
// addresses would land in the same direct-mapped set and evict each
// other on every fetch (zero L2 hits in every lockstep run).
func TestNamespacedCoresDoNotEvictEachOther(t *testing.T) {
	sys, err := NewSystem(l1cfg(), L2Config{Enabled: true, SizeBytes: 256 * 1024, Banks: 4,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 0}, 2, false, CoherenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const conflictStride = 16 * 1024 // same L1 set as addr 0, different tag
	now := int64(0)
	step := func(port int, addr uint64) {
		out, ok := sys.Port(port).Access(now, addr, false)
		if !ok {
			t.Fatalf("unexpected MSHR stall (port %d addr %#x)", port, addr)
		}
		now = out.ReadyAt + 1
	}
	// Both cores install line 0 in the L2, then conflict it out of their
	// L1s, then re-fetch it: the re-fetches must be L2 hits — core 1's
	// install must not have evicted core 0's line.
	step(0, 0)
	step(1, 0)
	step(0, conflictStride)
	step(1, conflictStride)
	step(0, 0)
	step(1, 0)
	if l2 := sys.L2(); l2.Hits != 2 {
		t.Fatalf("re-fetches hit %d times, want 2: namespaced cores alias in the L2 index (misses %d)",
			l2.Hits, l2.Misses)
	}
}

// TestTimeMustNotGoBackwards: like cache.Cache, the mem hierarchy asserts
// monotonic cycle numbers instead of silently corrupting refill state.
func TestTimeMustNotGoBackwards(t *testing.T) {
	t.Run("L1", func(t *testing.T) {
		l1, _ := NewL1(l1cfg(), nil)
		l1.Access(100, 0x10000, false)
		defer func() {
			if recover() == nil {
				t.Error("regressing time must panic")
			}
		}()
		l1.Access(50, 0x20000, false)
	})
	t.Run("L2", func(t *testing.T) {
		l2, _ := NewBankedL2(L2Config{Enabled: true, SizeBytes: 64 * 1024, Banks: 1,
			HitPenalty: 20, MissPenalty: 100}, 32)
		l2.Fetch(100, 1)
		defer func() {
			if recover() == nil {
				t.Error("regressing time must panic")
			}
		}()
		l2.Fetch(50, 2)
	})
}

// TestBadConfigsRejected: geometry errors surface at construction.
func TestBadConfigsRejected(t *testing.T) {
	if _, err := NewL1(L1Config{SizeBytes: 16384, LineBytes: 24, MSHRs: 8}, nil); err == nil {
		t.Error("non-power-of-two line size must be rejected")
	}
	if _, err := NewBankedL2(L2Config{SizeBytes: 100, Banks: 3, HitPenalty: 2, MissPenalty: 4}, 32); err == nil {
		t.Error("unaligned L2 size must be rejected")
	}
	if _, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 1, HitPenalty: 10, MissPenalty: 5}, 32); err == nil {
		t.Error("miss penalty below hit penalty must be rejected")
	}
	if _, err := NewSystem(l1cfg(), L2Config{SizeBytes: 64 * 1024, Banks: 1, HitPenalty: 2, MissPenalty: 4}, 0, false, CoherenceConfig{}); err == nil {
		t.Error("zero cores must be rejected")
	}
}
