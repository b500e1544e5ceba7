// Package core implements the paper's contribution: dynamic register
// renaming schemes for an out-of-order processor with a physical register
// file per class (integer and floating point).
//
// Three schemes are provided:
//
//   - Conventional: the R10000-style baseline. A physical register is
//     allocated for every destination at decode/rename and freed when the
//     next writer of the same logical register commits.
//   - VP with write-back allocation: destinations are renamed to
//     virtual-physical (VP) tags at decode; the physical register is
//     allocated when the instruction completes execution. If no register
//     may be allocated (under the NRR reservation rule that prevents
//     deadlock) the instruction is squashed back to the instruction queue
//     and re-executed.
//   - VP with issue allocation: the physical register is allocated when the
//     instruction issues; an instruction that cannot allocate does not
//     issue. No re-execution is needed.
//
// The pipeline drives a Renamer through a strict protocol: Rename in
// program order with strictly increasing instruction numbers, Complete when
// execution finishes (any order), Commit oldest-first, and Squash
// newest-first when recovering from a misprediction. Violations panic: they
// are simulator bugs, not recoverable conditions.
//
// Renamer state is replayed bit-for-bit by the run cache, so the package
// is determinism-checked: vplint's detsource analyzer bans unwaived wall
// clocks, goroutine launches and order-dependent map iteration here.
//
//vpr:detpkg
package core

import "repro/internal/isa"

// Scheme selects a renaming scheme.
type Scheme int

// The schemes under study.
const (
	SchemeConventional Scheme = iota
	SchemeVPWriteback
	SchemeVPIssue
)

// String names the scheme as used in experiment output.
func (s Scheme) String() string {
	switch s {
	case SchemeConventional:
		return "conv"
	case SchemeVPWriteback:
		return "vp-wb"
	case SchemeVPIssue:
		return "vp-issue"
	default:
		return "scheme?"
	}
}

// Params sizes a renamer. The zero value is invalid; use DefaultParams.
//
//vpr:cachekey
type Params struct {
	LogicalRegs int // per file; fixed at 32 by the ISA
	PhysRegs    int // per file; the paper sweeps 48, 64, 96
	VPRegs      int // per file; paper: logical + window size (VP schemes)
	NRRInt      int // reserved registers, integer file (VP schemes)
	NRRFP       int // reserved registers, FP file (VP schemes)

	// EarlyRelease enables the oracle-flavoured early register release
	// ablation on the conventional scheme (the paper's "second source of
	// waste", refs [8][10]): a previous mapping is freed as soon as its
	// value has been read by all renamed consumers, the next writer has
	// completed, and the next writer can no longer be squashed.
	EarlyRelease bool
}

// DefaultParams returns the paper's baseline configuration for the given
// scheme: 64 physical registers per file, NVR = 32 + 128, NRR at its
// maximum (physical minus logical = 32).
func DefaultParams() Params {
	return Params{
		LogicalRegs: isa.NumLogical,
		PhysRegs:    64,
		VPRegs:      isa.NumLogical + 128,
		NRRInt:      32,
		NRRFP:       32,
	}
}

// MaxNRR returns the largest legal NRR for the parameter set
// (physical registers minus logical registers).
func (p Params) MaxNRR() int { return p.PhysRegs - p.LogicalRegs }

// SrcOp is a renamed source operand.
type SrcOp struct {
	Present bool
	Zero    bool // hardwired zero register: no tag, always ready
	Class   isa.RegClass
	Tag     int  // wakeup tag: physical register (conventional) or VP register
	Ready   bool // value already available at rename time
}

// DstOp is a renamed destination.
type DstOp struct {
	Present bool
	Class   isa.RegClass
	Tag     int // tag consumers wake up on
}

// Renamed is the rename-stage output for one instruction.
type Renamed struct {
	Src1, Src2 SrcOp
	Dst        DstOp
}

// Renamer is the scheme-independent contract the pipeline drives.
type Renamer interface {
	// Rename maps the instruction's operands in program order. ok=false
	// means a structural stall (conventional scheme out of physical
	// registers): the pipeline must retry the same instruction later and
	// must not call Rename for younger instructions meanwhile.
	Rename(inum int64, in isa.Inst) (Renamed, bool)

	// AllocateAtIssue is consulted when the instruction is selected for
	// issue. Only the VP issue-allocation scheme can refuse (no register
	// available under the NRR rule); everyone else returns true.
	AllocateAtIssue(inum int64) bool

	// Complete is called when execution finishes, before write-back.
	// It returns the physical register that receives the value. ok=false
	// (VP write-back allocation only) means no register could be
	// allocated: the pipeline must squash the instruction back to the
	// instruction queue and re-execute it later (§3.3 of the paper).
	// Instructions without a destination always succeed with preg < 0.
	Complete(inum int64) (preg int, ok bool)

	// ReadPhys resolves an operand's wakeup tag to the physical register
	// holding its value. Valid only once the producer has completed (or,
	// for VP-issue, issued); consumers only read after wakeup, which
	// guarantees this.
	ReadPhys(class isa.RegClass, tag int) int

	// LookupReady re-tests an operand's readiness against current state
	// (used when re-dispatching after squashes).
	LookupReady(class isa.RegClass, tag int) bool

	// TagSpace returns the size of the wakeup-tag namespace for the
	// class: physical registers for the conventional scheme, VP registers
	// for the virtual-physical schemes. The pipeline's event-indexed
	// scheduler sizes its per-tag wakeup waiter lists with it.
	TagSpace(class isa.RegClass) int

	// SetWakeupSink registers the scheduler's notification sink. The
	// renamer must call TagSquashed whenever a destination wakeup tag is
	// reclaimed during recovery, so the scheduler can drop waiters
	// indexed under the tag before the tag is reused by a later rename.
	// A nil sink disables notifications.
	SetWakeupSink(s WakeupSink)

	// Commit retires the oldest renamed instruction.
	Commit(inum int64)

	// Squash undoes one renamed instruction during recovery. Calls must
	// proceed newest-first down to (but excluding) the recovery point.
	Squash(inum int64)

	// Tick is called once per simulated cycle with the current cycle
	// number and the newest instruction number that can no longer be
	// squashed. The cycle drives register-lifetime accounting; the safe
	// bound drives the early-release ablation.
	Tick(now, safe int64)

	// Stats snapshots the renamer's counters.
	Stats() Stats

	// NoteRead informs the renamer which source operands have now been
	// physically read (first/second). Ordinary instructions read both at
	// issue; stores read their data operand only at completion. Needed
	// by the early-release ablation; a no-op elsewhere.
	NoteRead(inum int64, first, second bool)

	// InUse returns the number of physical registers currently allocated
	// in the class's file.
	InUse(class isa.RegClass) int

	// FreeCount returns the number of free physical registers.
	FreeCount(class isa.RegClass) int

	// CheckInvariants recomputes internal bookkeeping from first
	// principles and reports any inconsistency. Used by tests and the
	// pipeline's debug mode.
	CheckInvariants() error
}

// Stats are the counters a Renamer accumulates: the one list of renaming
// counters, which pipeline.Stats embeds. The first four count one
// scheme's events each and stay zero under the other schemes.
//
//vpr:stats
type Stats struct {
	RenameRegStall int64 // conventional: rename refusals with an empty free list
	EarlyReleases  int64 // conventional: early-release ablation events
	Reexecutions   int64 // VP write-back: allocations refused (re-executions follow)
	IssueBlocks    int64 // VP issue: issue allocations refused

	// Register-lifetime accounting (the §3.1 pressure metric measured in
	// vivo): total cycles freed physical registers were held, and how
	// many were freed.
	RegLifetimeSum int64
	RegsFreed      int64
}

// Add accumulates other into s.
//
//vpr:statsink Stats
func (s *Stats) Add(other Stats) {
	s.RenameRegStall += other.RenameRegStall
	s.EarlyReleases += other.EarlyReleases
	s.Reexecutions += other.Reexecutions
	s.IssueBlocks += other.IssueBlocks
	s.RegLifetimeSum += other.RegLifetimeSum
	s.RegsFreed += other.RegsFreed
}

// WakeupSink receives the renamer-side notifications the pipeline's
// event-indexed scheduler needs to keep its wakeup index consistent:
// recovery reclaims wakeup tags (squash undoes renames newest-first) and
// the tag numbers are recycled by later renames, so any waiters still
// filed under a reclaimed tag must be invalidated before the reuse. The
// complementary pool-side notification is SharedPool.SetFreeListener.
type WakeupSink interface {
	// TagSquashed reports that the destination tag of a squashed
	// instruction returned to the renamer's free pool.
	TagSquashed(class isa.RegClass, tag int)
}

// windowHint is the initial per-context capacity of renamer bookkeeping
// rings; they grow on demand, so this only tunes the first allocation
// (the paper's window is 128 instructions).
const windowHint = 256

// New builds a renamer for the scheme.
func New(s Scheme, p Params) Renamer {
	switch s {
	case SchemeConventional:
		return NewConventional(p)
	case SchemeVPWriteback:
		return NewVP(p, AllocAtWriteback)
	case SchemeVPIssue:
		return NewVP(p, AllocAtIssue)
	default:
		panic("core: unknown scheme")
	}
}

// classOf is the inverse of classIdx.
func classOf(f int) isa.RegClass {
	if f == 0 {
		return isa.RegInt
	}
	return isa.RegFP
}

// classIdx maps a register class to an internal file index.
func classIdx(c isa.RegClass) int {
	switch c {
	case isa.RegInt:
		return 0
	case isa.RegFP:
		return 1
	default:
		panic("core: operand has no register class")
	}
}

// freeList is a simple LIFO pool of register indices.
type freeList struct {
	regs []int
}

func newFreeList(lo, hi int) *freeList {
	f := &freeList{regs: make([]int, 0, hi-lo)}
	for r := hi - 1; r >= lo; r-- {
		f.regs = append(f.regs, r) // pop order: lo first
	}
	return f
}

func (f *freeList) len() int    { return len(f.regs) }
func (f *freeList) empty() bool { return len(f.regs) == 0 }

func (f *freeList) pop() int {
	r := f.regs[len(f.regs)-1]
	f.regs = f.regs[:len(f.regs)-1]
	return r
}

func (f *freeList) push(r int) {
	//vpr:allowalloc bounded: the free count never exceeds the initial capacity
	f.regs = append(f.regs, r)
}
