package cache

import (
	"testing"
	"testing/quick"
)

func mk() *Cache { return New(DefaultConfig()) }

func TestHitAfterRefill(t *testing.T) {
	c := mk()
	out, ok := c.Access(0, 0x10000, false)
	if !ok || out.Hit {
		t.Fatalf("first access must be a miss: %+v ok=%v", out, ok)
	}
	if out.ReadyAt != 52 { // hit latency 2 + penalty 50
		t.Errorf("miss ReadyAt = %d, want 52", out.ReadyAt)
	}
	// Before the refill lands the line is still pending: merge.
	out2, ok := c.Access(10, 0x10008, false)
	if !ok || !out2.Merged || out2.ReadyAt != out.ReadyAt {
		t.Errorf("same-line access should merge: %+v", out2)
	}
	// After the refill: hit.
	out3, ok := c.Access(out.ReadyAt, 0x10010, false)
	if !ok || !out3.Hit || out3.ReadyAt != out.ReadyAt+2 {
		t.Errorf("post-refill access should hit: %+v", out3)
	}
	if c.Hits != 1 || c.Misses != 1 || c.Merges != 1 {
		t.Errorf("stats = %d/%d/%d", c.Hits, c.Misses, c.Merges)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := mk()
	// Two addresses 16 KB apart map to the same set.
	c.Access(0, 0x10000, false)
	c.Access(100, 0x10000, false) // now resident
	out, ok := c.Access(200, 0x10000+16*1024, false)
	if !ok || out.Hit {
		t.Fatal("conflicting line must miss")
	}
	out2, ok := c.Access(out.ReadyAt, 0x10000, false)
	if !ok || out2.Hit {
		t.Error("victim must have been evicted")
	}
}

func TestMSHRExhaustion(t *testing.T) {
	c := mk()
	for i := 0; i < 8; i++ {
		if _, ok := c.Access(0, uint64(0x10000+i*32), false); !ok {
			t.Fatalf("miss %d should get an MSHR", i)
		}
	}
	if c.InFlight() != 8 {
		t.Fatalf("in flight = %d, want 8", c.InFlight())
	}
	if _, ok := c.Access(0, 0x90000, false); ok {
		t.Fatal("ninth distinct-line miss must be rejected")
	}
	if c.MSHRStalls != 1 {
		t.Errorf("MSHRStalls = %d", c.MSHRStalls)
	}
	// Merges are still allowed when MSHRs are full.
	if out, ok := c.Access(0, 0x10004, false); !ok || !out.Merged {
		t.Error("secondary miss must merge even with MSHRs full")
	}
	// After refills complete, new misses can start again.
	if _, ok := c.Access(200, 0x90000, false); !ok {
		t.Error("MSHR should be free after refills drain")
	}
}

func TestBusSerializesRefills(t *testing.T) {
	c := mk()
	a, _ := c.Access(0, 0x10000, false)
	b, _ := c.Access(0, 0x20000, false)
	d, _ := c.Access(0, 0x30000, false)
	if a.ReadyAt != 52 {
		t.Errorf("first refill at %d, want 52", a.ReadyAt)
	}
	if b.ReadyAt != a.ReadyAt+4 || d.ReadyAt != b.ReadyAt+4 {
		t.Errorf("refills = %d,%d,%d; want 4-cycle bus spacing", a.ReadyAt, b.ReadyAt, d.ReadyAt)
	}
	// A miss issued long after the bus is idle pays only the base penalty.
	e, _ := c.Access(1000, 0x40000, false)
	if e.ReadyAt != 1052 {
		t.Errorf("idle-bus refill at %d, want 1052", e.ReadyAt)
	}
}

func TestDirtyEvictionCostsBusTime(t *testing.T) {
	// With an idle bus, a dirty eviction overlaps the refill's memory
	// latency and costs nothing; under contention the extra line
	// transfer delays later refills.
	c := mk()
	const conflict = 16 * 1024
	// Dirty two lines (write-allocate, then let them land).
	w1, _ := c.Access(0, 0x10000, true)
	w2, _ := c.Access(0, 0x10020, true)
	c.Access(max64(w1.ReadyAt, w2.ReadyAt), 0x10000, false)

	// Idle bus: eviction overlapped, base latency only.
	out1, _ := c.Access(200, 0x10000+conflict, false)
	if out1.ReadyAt != 252 {
		t.Errorf("refill after dirty eviction (idle bus) at %d, want 252", out1.ReadyAt)
	}
	// Contended bus: the second miss also evicts a dirty victim; its
	// refill queues behind the first refill plus the victim transfer.
	out2, _ := c.Access(200, 0x10020+conflict, false)
	if want := out1.ReadyAt + 4 + 4; out2.ReadyAt != want {
		t.Errorf("contended refill after dirty eviction at %d, want %d", out2.ReadyAt, want)
	}
	if c.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.Evictions)
	}

	// Control: clean victims add no bus transfer under contention.
	c2 := mk()
	r1, _ := c2.Access(0, 0x10000, false)
	r2, _ := c2.Access(0, 0x10020, false)
	c2.Access(max64(r1.ReadyAt, r2.ReadyAt), 0x10000, false)
	o1, _ := c2.Access(200, 0x10000+conflict, false)
	o2, _ := c2.Access(200, 0x10020+conflict, false)
	if o1.ReadyAt != 252 || o2.ReadyAt != 256 {
		t.Errorf("clean-victim refills at %d,%d; want 252,256", o1.ReadyAt, o2.ReadyAt)
	}
	if c2.Evictions != 0 {
		t.Errorf("clean evictions counted: %d", c2.Evictions)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestWriteAllocateMakesLineDirty(t *testing.T) {
	c := mk()
	w, _ := c.Access(0, 0x10000, true)
	// After the refill, the line must exist and be dirty (checked via the
	// eviction cost as above, and via Probe for presence).
	c.Access(w.ReadyAt, 0x10040, false) // advance time, drain
	if !c.Probe(0x10000) {
		t.Error("written line must be resident after write-allocate")
	}
}

func TestMergedWriteMarksRefillDirty(t *testing.T) {
	c := mk()
	r, _ := c.Access(0, 0x10000, false) // read miss
	c.Access(1, 0x10008, true)          // write merges into pending refill
	// Once installed, the line is dirty: evicting it costs a writeback.
	c.Access(r.ReadyAt+10, 0x10000+16*1024, false)
	if c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (merged write must dirty the refill)", c.Evictions)
	}
	// Control: without the merged write, the same sequence evicts clean.
	c2 := mk()
	r2, _ := c2.Access(0, 0x10000, false)
	c2.Access(1, 0x10008, false)
	c2.Access(r2.ReadyAt+10, 0x10000+16*1024, false)
	if c2.Evictions != 0 {
		t.Errorf("control evictions = %d, want 0", c2.Evictions)
	}
}

func TestStreamingMissesEveryLine(t *testing.T) {
	c := mk()
	now := int64(0)
	for i := 0; i < 1024; i++ {
		addr := uint64(0x100000 + i*8)
		out, ok := c.Access(now, addr, false)
		if !ok {
			t.Fatalf("access %d rejected", i)
		}
		now = out.ReadyAt // fully serialized stream
	}
	// 8-byte strides over 32-byte lines: one miss every 4 accesses.
	if c.Misses != 256 || c.Hits != 768 {
		t.Errorf("stream misses/hits = %d/%d, want 256/768", c.Misses, c.Hits)
	}
	if r := c.MissRatio(); r < 0.24 || r > 0.26 {
		t.Errorf("miss ratio = %.3f", r)
	}
}

func TestResidentSetAlwaysHits(t *testing.T) {
	c := mk()
	now := int64(0)
	// Touch 4 KB once to warm.
	for i := 0; i < 128; i++ {
		out, _ := c.Access(now, uint64(0x10000+i*32), false)
		now = out.ReadyAt
	}
	warmMisses := c.Misses
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 128; i++ {
			out, ok := c.Access(now, uint64(0x10000+i*32), false)
			if !ok || !out.Hit {
				t.Fatalf("resident access missed at pass %d line %d", pass, i)
			}
			now = out.ReadyAt
		}
	}
	if c.Misses != warmMisses {
		t.Errorf("extra misses on resident set: %d", c.Misses-warmMisses)
	}
}

func TestTimeMustNotGoBackwards(t *testing.T) {
	c := mk()
	c.Access(100, 0x10000, false)
	defer func() {
		if recover() == nil {
			t.Error("regressing time must panic")
		}
	}()
	c.Access(50, 0x20000, false)
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two line size must panic")
		}
	}()
	New(Config{SizeBytes: 16384, LineBytes: 24, MSHRs: 8})
}

// Property: ReadyAt is always at least now + hit latency, hits never exceed
// it, and the MSHR population never exceeds the configured limit.
func TestQuickTimingInvariants(t *testing.T) {
	c := mk()
	now := int64(0)
	f := func(dt uint8, lineSel uint16, write bool) bool {
		now += int64(dt % 8)
		addr := uint64(0x10000 + int(lineSel%512)*32)
		out, ok := c.Access(now, addr, write)
		if !ok {
			return c.InFlight() == 8 // rejected only when truly full
		}
		if out.ReadyAt < now {
			return false
		}
		if out.Hit && out.ReadyAt != now+2 {
			return false
		}
		// A merge may return sooner than a fresh hit (the refill is
		// already on its way); primary misses never beat the hit latency.
		if !out.Hit && !out.Merged && out.ReadyAt < now+2 {
			return false
		}
		return c.InFlight() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
