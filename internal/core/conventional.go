package core

import (
	"fmt"

	"repro/internal/isa"
)

// convEntry is the per-instruction bookkeeping of the conventional scheme.
type convEntry struct {
	inum int64

	hasDst   bool
	class    int // file index of the destination
	logical  uint8
	newP     int // register allocated at rename
	prevP    int // mapping it displaced (freed at commit)
	complete bool

	// Early-release ablation bookkeeping.
	srcP      [2]int // physical registers named by the sources (-1 if none)
	srcClass  [2]int // file index of each source
	srcRead   [2]bool
	prevFreed bool // prevP already returned by early release
}

// Conventional is the R10000-style renamer: map table + free list per
// class, allocation at decode, release at commit of the next writer.
type Conventional struct {
	params   Params
	pool     *SharedPool
	mapTable [2][]int  // logical -> physical
	ready    [2][]bool // physical register holds a valid value
	// entries holds the in-flight instructions in program order: renamed
	// at the back, committed from the front, squashed from the back.
	// Instruction numbers in the window are consecutive, so lookup by
	// inum is an offset from the front.
	entries ring[convEntry]

	safeBound    int64   // instructions <= safeBound cannot be squashed
	earlyPending []int64 // inums with a pending early release
	sink         WakeupSink

	// Register-lifetime accounting (§3.1 pressure metric, in vivo).
	now        int64
	allocCycle [2][]int64

	st Stats
}

var _ Renamer = (*Conventional)(nil)

// NewConventional builds the baseline renamer. The initial state maps
// logical register i to physical register i in each file, with the
// remaining registers free — the paper's observation that "when the
// instruction window is empty each logical register is mapped to a physical
// register".
func NewConventional(p Params) *Conventional {
	if p.PhysRegs <= p.LogicalRegs {
		panic(fmt.Sprintf("core: %d physical registers cannot back %d logical", p.PhysRegs, p.LogicalRegs))
	}
	return NewConventionalShared(p, NewSharedPool(p.PhysRegs))
}

// NewConventionalShared builds a conventional renamer drawing from a shared
// physical register pool (SMT: one renamer per hardware context). The
// context's architectural registers are claimed from the pool immediately.
func NewConventionalShared(p Params, pool *SharedPool) *Conventional {
	c := &Conventional{
		params:    p,
		pool:      pool,
		entries:   newRing[convEntry](windowHint),
		safeBound: -1,
	}
	arch := pool.attach(p.LogicalRegs, 0, 0, false)
	for f := 0; f < 2; f++ {
		c.mapTable[f] = make([]int, p.LogicalRegs)
		c.ready[f] = make([]bool, pool.PhysRegs())
		c.allocCycle[f] = make([]int64, pool.PhysRegs())
		for l := 0; l < p.LogicalRegs; l++ {
			c.mapTable[f][l] = arch[f][l]
			c.ready[f][arch[f][l]] = true
		}
	}
	return c
}

// Rename implements Renamer.
//
//vpr:hotpath
func (c *Conventional) Rename(inum int64, in isa.Inst) (Renamed, bool) {
	if n := c.entries.len(); n > 0 && inum <= c.entries.at(n-1).inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: rename out of order (%d after %d)", inum, c.entries.at(n-1).inum))
	}
	if in.HasDst() && c.pool.free[classIdx(in.Dst.Class)].empty() {
		c.st.RenameRegStall++
		return Renamed{}, false
	}
	e := c.entries.pushBack(convEntry{inum: inum, newP: -1, prevP: -1, srcP: [2]int{-1, -1}})

	var out Renamed
	out.Src1 = c.renameSrc(in.Src1, e, 0)
	out.Src2 = c.renameSrc(in.Src2, e, 1)

	if in.HasDst() {
		f := classIdx(in.Dst.Class)
		p := c.pool.free[f].pop()
		c.allocCycle[f][p] = c.now
		e.hasDst = true
		e.class = f
		e.logical = in.Dst.Index
		e.newP = p
		e.prevP = c.mapTable[f][in.Dst.Index]
		c.mapTable[f][in.Dst.Index] = p
		c.ready[f][p] = false
		out.Dst = DstOp{Present: true, Class: in.Dst.Class, Tag: p}
	}
	return out, true
}

func (c *Conventional) renameSrc(r isa.Reg, e *convEntry, slot int) SrcOp {
	if r.Class == isa.RegNone {
		return SrcOp{}
	}
	if r.IsZero() {
		return SrcOp{Present: true, Zero: true, Class: r.Class, Ready: true}
	}
	f := classIdx(r.Class)
	p := c.mapTable[f][r.Index]
	e.srcP[slot] = p
	e.srcClass[slot] = f
	return SrcOp{Present: true, Class: r.Class, Tag: p, Ready: c.ready[f][p]}
}

// AllocateAtIssue implements Renamer; the conventional scheme allocated at
// rename, so issue never blocks on registers.
//
//vpr:hotpath
func (c *Conventional) AllocateAtIssue(int64) bool { return true }

// Complete implements Renamer: mark the destination value available.
//
//vpr:hotpath
func (c *Conventional) Complete(inum int64) (int, bool) {
	e := c.mustEntry(inum, "complete")
	if e.complete {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: instruction %d completed twice", inum))
	}
	e.complete = true
	if !e.hasDst {
		return -1, true
	}
	c.ready[e.class][e.newP] = true
	if c.params.EarlyRelease && e.prevP >= 0 {
		//vpr:allowalloc amortized: earlyPending retains capacity across cycles
		c.earlyPending = append(c.earlyPending, inum)
	}
	return e.newP, true
}

// ReadPhys implements Renamer: the tag is the physical register.
//
//vpr:hotpath
func (c *Conventional) ReadPhys(class isa.RegClass, tag int) int { return tag }

// LookupReady implements Renamer.
//
//vpr:hotpath
func (c *Conventional) LookupReady(class isa.RegClass, tag int) bool {
	return c.ready[classIdx(class)][tag]
}

// TagSpace implements Renamer: wakeup tags are physical register numbers.
func (c *Conventional) TagSpace(class isa.RegClass) int { return c.pool.PhysRegs() }

// SetWakeupSink implements Renamer.
func (c *Conventional) SetWakeupSink(s WakeupSink) { c.sink = s }

// NoteRead implements Renamer: record which of the instruction's operands
// have been consumed, so the early-release ablation can retire pending
// reads. Store data operands are read at completion, not issue — freeing
// their register any earlier would be unsound.
//
//vpr:hotpath
func (c *Conventional) NoteRead(inum int64, first, second bool) {
	if !c.params.EarlyRelease {
		return
	}
	e := c.mustEntry(inum, "note-read")
	if first {
		e.srcRead[0] = true
	}
	if second {
		e.srcRead[1] = true
	}
}

// Commit implements Renamer: free the displaced mapping.
//
//vpr:hotpath
func (c *Conventional) Commit(inum int64) {
	if c.entries.len() == 0 || c.entries.at(0).inum != inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: commit out of order (%d is not the oldest)", inum))
	}
	e := c.entries.at(0)
	if e.hasDst {
		if !e.complete {
			//vpr:allowalloc panic message: an invariant violation aborts the run
			panic(fmt.Sprintf("core: committing incomplete instruction %d", inum))
		}
		if e.prevP >= 0 && !e.prevFreed {
			c.pool.release(e.class, e.prevP)
			c.noteFreed(e.class, e.prevP)
			e.prevFreed = true // a stale earlyPending entry must not free it again
		}
	}
	c.entries.popFront()
}

// Squash implements Renamer: undo the youngest rename.
//
//vpr:hotpath
func (c *Conventional) Squash(inum int64) {
	n := c.entries.len()
	if n == 0 || c.entries.at(n-1).inum != inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: squash out of order (%d is not the youngest)", inum))
	}
	e := c.entries.at(n - 1)
	if e.hasDst {
		if c.mapTable[e.class][e.logical] != e.newP {
			panic("core: map table corrupt during recovery")
		}
		c.mapTable[e.class][e.logical] = e.prevP
		c.pool.release(e.class, e.newP)
		c.noteFreed(e.class, e.newP)
		if e.prevFreed {
			panic("core: squashing an instruction whose previous mapping was early-released")
		}
		if c.sink != nil {
			c.sink.TagSquashed(classOf(e.class), e.newP)
		}
	}
	c.entries.popBack()
}

// Tick implements Renamer: advance the clock and the no-squash bound, and
// run the early-release scan.
//
//vpr:hotpath
func (c *Conventional) Tick(now, safe int64) {
	c.now = now
	if safe > c.safeBound {
		c.safeBound = safe
	}
	if !c.params.EarlyRelease || len(c.earlyPending) == 0 {
		return
	}
	kept := c.earlyPending[:0]
	for _, inum := range c.earlyPending {
		e := c.entry(inum)
		if e == nil {
			continue // committed: prevP was freed on the normal path
		}
		if c.tryEarlyRelease(e) {
			continue
		}
		//vpr:allowalloc in-place filter: kept aliases earlyPending's backing array
		kept = append(kept, inum)
	}
	c.earlyPending = kept
}

// tryEarlyRelease frees e.prevP if it is provably dead: the displaced
// value has been produced (its in-flight producer would otherwise write the
// register after reallocation), e (the next writer) has completed and can
// no longer be squashed, and every renamed consumer of prevP has read it.
// Consumers of prevP are all older than e, so they are also beyond
// squashing; requiring their reads to have happened keeps this sound.
func (c *Conventional) tryEarlyRelease(e *convEntry) bool {
	if e.prevFreed || !e.complete || e.inum > c.safeBound || !c.ready[e.class][e.prevP] {
		return false
	}
	// Any live older instruction naming prevP as a source that has not
	// yet read it blocks the release. The window is small (≤ ROB), so a
	// scan is fine.
	for i := 0; i < c.entries.len(); i++ {
		other := c.entries.at(i)
		if other.inum >= e.inum {
			break
		}
		for s := 0; s < 2; s++ {
			if other.srcP[s] == e.prevP && other.srcClass[s] == e.class && !other.srcRead[s] {
				return false
			}
		}
	}
	e.prevFreed = true
	c.pool.release(e.class, e.prevP)
	c.noteFreed(e.class, e.prevP)
	c.st.EarlyReleases++
	return true
}

// noteFreed accumulates the holding time of a just-freed register.
func (c *Conventional) noteFreed(f, p int) {
	c.st.RegLifetimeSum += c.now - c.allocCycle[f][p]
	c.st.RegsFreed++
}

// Stats implements Renamer.
func (c *Conventional) Stats() Stats { return c.st }

// InUse implements Renamer: pool-wide allocated registers (all contexts).
func (c *Conventional) InUse(class isa.RegClass) int {
	f := classIdx(class)
	return c.pool.PhysRegs() - c.pool.free[f].len()
}

// FreeCount implements Renamer.
func (c *Conventional) FreeCount(class isa.RegClass) int {
	return c.pool.free[classIdx(class)].len()
}

// HeldRegisters reports every physical register this context references:
// current mappings plus displaced-but-recoverable previous mappings.
func (c *Conventional) HeldRegisters(f int) []int {
	held := append([]int(nil), c.mapTable[f]...)
	for i := 0; i < c.entries.len(); i++ {
		e := c.entries.at(i)
		if e.hasDst && e.class == f && e.prevP >= 0 && !e.prevFreed {
			held = append(held, e.prevP)
		}
	}
	return held
}

// CheckInvariants implements Renamer. For a private pool the held
// registers plus the free list must exactly partition each file; in a
// shared pool only this context's self-consistency is checkable here (the
// pipeline validates the full partition across all contexts).
func (c *Conventional) CheckInvariants() error {
	if c.pool.members == 1 {
		return c.pool.CheckInvariants(c)
	}
	for f := 0; f < 2; f++ {
		seen := make(map[int]int)
		for _, r := range c.HeldRegisters(f) {
			if r < 0 || r >= c.pool.PhysRegs() {
				return fmt.Errorf("conv: file %d holds out-of-range register %d", f, r)
			}
			seen[r]++
			if seen[r] > 1 {
				return fmt.Errorf("conv: file %d register %d held twice by one context", f, r)
			}
		}
	}
	return nil
}

// key implements the ring lookup constraint.
func (e *convEntry) key() int64 { return e.inum }

// entry returns the in-flight entry for inum, or nil if it is not in the
// window.
func (c *Conventional) entry(inum int64) *convEntry {
	return lookup[convEntry](&c.entries, inum)
}

func (c *Conventional) mustEntry(inum int64, op string) *convEntry {
	e := c.entry(inum)
	if e == nil {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: %s of unknown instruction %d", op, inum))
	}
	return e
}
