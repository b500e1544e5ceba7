package pipeline

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// checkL1Accounting asserts the L1's accounting identity: mem.L1.Access
// counts every access exactly once, as a hit, a secondary-miss merge, an
// MSHR-stall retry or a primary miss.
func checkL1Accounting(t *testing.T, st Stats) {
	t.Helper()
	if sum := st.CacheHits + st.CacheMergedMiss + st.MSHRStallCycles + st.CacheMisses; st.CacheAccesses != sum {
		t.Errorf("L1 accounting: %d accesses, but hits %d + merges %d + MSHR stalls %d + misses %d = %d",
			st.CacheAccesses, st.CacheHits, st.CacheMergedMiss, st.MSHRStallCycles, st.CacheMisses, sum)
	}
}

// runSrc assembles src, traces it with the emulator and runs it through a
// simulator with the given config (Debug and ValueCheck forced on).
func runSrc(t *testing.T, cfg Config, src string) Stats {
	t.Helper()
	cfg.Debug = true
	cfg.ValueCheck = true
	gen, err := emu.NewTraceGen(asm.MustAssemble("t", src))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Err() != nil {
		t.Fatal(gen.Err())
	}
	return st
}

func traceLen(t *testing.T, src string) int64 {
	t.Helper()
	gen, err := emu.NewTraceGen(asm.MustAssemble("t", src))
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(trace.Collect(gen, 1<<40)))
}

func TestSingleInstructionLatency(t *testing.T) {
	// fetch(0) → dispatch(1) → issue(2) → write-back(3) → commit(4):
	// five cycles for one instruction through the five-stage skeleton.
	st := runSrc(t, DefaultConfig(), "add r1, r31, r31\nhalt")
	if st.Committed != 1 {
		t.Fatalf("committed = %d", st.Committed)
	}
	if st.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", st.Cycles)
	}
}

func TestDependentChainBypassesAtFullRate(t *testing.T) {
	// N serially dependent single-cycle adds sustain one per cycle via
	// the bypass (issue in the producer's write-back cycle).
	var b strings.Builder
	const n = 100
	b.WriteString("ldi r1, 1\n")
	for i := 0; i < n; i++ {
		b.WriteString("add r1, r1, r1\n")
	}
	b.WriteString("halt")
	st := runSrc(t, DefaultConfig(), b.String())
	if st.Committed != n+1 {
		t.Fatalf("committed = %d", st.Committed)
	}
	// n dependent adds at 1/cycle plus pipeline fill/drain.
	if st.Cycles < n+3 || st.Cycles > n+8 {
		t.Errorf("cycles = %d, want ≈ %d (chain at 1 IPC)", st.Cycles, n+5)
	}
}

func TestIndependentAddsLimitedBySimpleIntUnits(t *testing.T) {
	var b strings.Builder
	const n = 300
	for i := 0; i < n; i++ {
		b.WriteString("add r1, r31, r31\n") // independent: sources are zero regs
	}
	b.WriteString("halt")
	st := runSrc(t, DefaultConfig(), b.String())
	ipc := st.IPC()
	if ipc < 2.5 || ipc > 3.05 {
		t.Errorf("IPC = %.2f, want ≈ 3 (three simple-int units)", ipc)
	}
}

func TestDividerIsUnpipelined(t *testing.T) {
	// Three independent divides on two shared complex-int units: the
	// third must wait a full 67-cycle occupancy.
	src := `
        ldi r1, 100
        div r2, r1, r1
        div r3, r1, r1
        div r4, r1, r1
        halt`
	st := runSrc(t, DefaultConfig(), src)
	// ldi WB at 3; divs issue at 3 (two units), third at 3+67=70,
	// completing ≈ 137, commit ≈ 138 → cycles ≈ 139.
	if st.Cycles < 135 || st.Cycles > 145 {
		t.Errorf("cycles = %d, want ≈ 139 (third divide serialized)", st.Cycles)
	}
}

// TestFUOccupancyFitsReleaseWheel: no Config field reaches a functional
// unit's occupancy; it comes from the isa op table alone (Latency for the
// unpipelined dividers, one cycle otherwise). Every op's latency must stay
// inside the pools' release-wheel horizon, so a future long-latency op
// fails here instead of panicking a run in poolState.take.
func TestFUOccupancyFitsReleaseWheel(t *testing.T) {
	horizon := len(poolState{}.rel)
	for _, op := range isa.Opcodes() {
		if lat := op.Info().Latency; lat < 1 || lat >= horizon {
			t.Errorf("%s: latency %d outside the release wheel's [1, %d) horizon", op, lat, horizon)
		}
	}
}

func TestLoadMissTiming(t *testing.T) {
	src := `
        .data
d:      .word 5
        .text
        ldi r1, d
        ldq r2, 0(r1)
        add r3, r2, r2
        halt`
	st := runSrc(t, DefaultConfig(), src)
	// ldi WB@3; ldq issues@3, AGU@4, miss → data @ 4+52=56; add issues
	// @56, WB@57, commit@58 → 59 cycles.
	if st.Cycles != 59 {
		t.Errorf("cycles = %d, want 59 (cold miss of 52 cycles end-to-end)", st.Cycles)
	}
	if st.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1", st.CacheMisses)
	}
}

func TestLoadHitTiming(t *testing.T) {
	// Second load to the same line hits: 2-cycle access after AGU.
	src := `
        .data
d:      .word 5, 6
        .text
        ldi r1, d
        ldq r2, 0(r1)
        add r3, r2, r2
        ldq r4, 8(r1)
        add r5, r4, r4
        halt`
	st := runSrc(t, DefaultConfig(), src)
	// The second load's line was refilled by the first; both loads issue
	// early (independent), the second merges into the first's MSHR.
	if st.CacheMisses != 1 || st.CacheMergedMiss != 1 {
		t.Errorf("misses/merges = %d/%d, want 1/1", st.CacheMisses, st.CacheMergedMiss)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	src := `
        .data
d:      .word 0
        .text
        ldi r1, d
        ldi r2, 7
        stq 0(r1), r2
        ldq r3, 0(r1)
        add r4, r3, r3
        halt`
	st := runSrc(t, DefaultConfig(), src)
	if st.LoadsForwarded != 1 {
		t.Errorf("forwarded = %d, want 1", st.LoadsForwarded)
	}
	if st.MemViolations != 0 {
		t.Errorf("violations = %d, want 0 (load sees the store's address in time)", st.MemViolations)
	}
}

// violationSrc delays a store's address computation behind a 9-cycle
// multiply while a younger load to the same address races ahead.
const violationSrc = `
        .data
d:      .word 3
        .text
        ldi r1, d
        ldi r5, 8
        mul r6, r5, r31    ; 0, but takes 9 cycles
        add r7, r1, r6     ; the store address, late
        stq 0(r7), r5
        ldq r8, 0(r1)      ; same address, executes early under speculation
        add r9, r8, r8
        halt`

func TestSpeculativeViolationReplay(t *testing.T) {
	st := runSrc(t, DefaultConfig(), violationSrc)
	if st.MemViolations < 1 {
		t.Fatalf("violations = %d, want ≥ 1", st.MemViolations)
	}
	if st.Committed != traceLen(t, violationSrc) {
		t.Errorf("committed = %d, want full trace after replay", st.Committed)
	}
}

func TestConservativeDisambiguationAvoidsViolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Disambiguation = DisambConservative
	st := runSrc(t, cfg, violationSrc)
	if st.MemViolations != 0 {
		t.Errorf("violations = %d, want 0 under conservative disambiguation", st.MemViolations)
	}
	if st.LoadsForwarded != 1 {
		t.Errorf("forwarded = %d, want 1 (load waits and then forwards)", st.LoadsForwarded)
	}
}

func TestMispredictionFreezesFetch(t *testing.T) {
	// A tight counted loop: the 2-bit predictor learns "taken" and only
	// mispredicts around the exit.
	src := `
        ldi  r1, 50
loop:   subi r1, r1, 1
        bne  r1, loop
        halt`
	st := runSrc(t, DefaultConfig(), src)
	if st.CondBranches != 50 {
		t.Fatalf("branches resolved = %d, want 50", st.CondBranches)
	}
	if st.Mispredicts < 1 || st.Mispredicts > 3 {
		t.Errorf("mispredicts = %d, want 1-3 (warmup + exit)", st.Mispredicts)
	}
}

func TestDataDependentBranchesMispredictOften(t *testing.T) {
	// Branch direction alternates via parity: a 2-bit counter cannot
	// track it perfectly.
	src := `
        ldi  r1, 200
        ldi  r2, 0
loop:   andi r3, r1, 1
        beq  r3, skip
        addi r2, r2, 1
skip:   subi r1, r1, 1
        bne  r1, loop
        halt`
	st := runSrc(t, DefaultConfig(), src)
	if st.MispredictRate() < 0.2 {
		t.Errorf("mispredict rate = %.2f, want ≥ 0.2 on alternating branches", st.MispredictRate())
	}
}

func TestConventionalRenameStall(t *testing.T) {
	// 8 extra integer registers and a window full of long-latency
	// producers: decode must stall on the free list.
	cfg := DefaultConfig()
	cfg.Rename.PhysRegs = 40
	cfg.Rename.NRRInt, cfg.Rename.NRRFP = 8, 8
	var b strings.Builder
	b.WriteString("ldi r1, 3\n")
	for i := 0; i < 30; i++ {
		b.WriteString("div r2, r1, r1\n") // 67-cycle producers
	}
	b.WriteString("halt")
	st := runSrc(t, cfg, b.String())
	if st.RenameRegStall == 0 {
		t.Error("expected rename stalls with 8 free registers and slow producers")
	}
}

func TestVPWritebackReexecutesUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = core.SchemeVPWriteback
	cfg.Rename.PhysRegs = 40
	cfg.Rename.NRRInt, cfg.Rename.NRRFP = 4, 4
	// Many independent adds behind one slow divide: the adds complete
	// long before they may allocate.
	var b strings.Builder
	b.WriteString("ldi r1, 3\ndiv r2, r1, r1\n")
	for i := 0; i < 40; i++ {
		b.WriteString("add r3, r2, r1\n") // dependent on the divide? no: r2 — yes, dependent
	}
	for i := 0; i < 40; i++ {
		b.WriteString("add r4, r1, r1\n") // independent: complete early
	}
	b.WriteString("halt")
	st := runSrc(t, cfg, b.String())
	if st.Reexecutions == 0 {
		t.Error("expected write-back allocation failures (re-executions) under pressure")
	}
	if st.ExecPerCommit() <= 1.0 {
		t.Errorf("exec/commit = %.2f, want > 1 with re-execution", st.ExecPerCommit())
	}
}

func TestVPIssueBlocksInsteadOfReexecuting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = core.SchemeVPIssue
	cfg.Rename.PhysRegs = 40
	cfg.Rename.NRRInt, cfg.Rename.NRRFP = 4, 4
	var b strings.Builder
	b.WriteString("ldi r1, 3\ndiv r2, r1, r1\n")
	for i := 0; i < 60; i++ {
		b.WriteString("add r4, r1, r1\n")
	}
	b.WriteString("halt")
	st := runSrc(t, cfg, b.String())
	if st.Reexecutions != 0 {
		t.Errorf("re-executions = %d, want 0 under issue allocation", st.Reexecutions)
	}
	if st.IssueBlocks == 0 {
		t.Error("expected issue blocks under register pressure")
	}
	if got := st.ExecPerCommit(); got != 1.0 {
		t.Errorf("exec/commit = %.2f, want exactly 1", got)
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePorts = 0
	if _, err := New(cfg, trace.FromSlice(nil)); err == nil {
		t.Error("invalid config must be rejected")
	}
	cfg = DefaultConfig()
	cfg.Scheme = core.SchemeVPWriteback
	cfg.Rename.VPRegs = 40 // < logical + window
	if _, err := New(cfg, trace.FromSlice(nil)); err == nil {
		t.Error("undersized VP pool must be rejected")
	}
}

func TestEmptyTrace(t *testing.T) {
	sim, err := New(DefaultConfig(), trace.FromSlice(nil))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 || !sim.Done() {
		t.Errorf("empty trace: committed=%d done=%v", st.Committed, sim.Done())
	}
}

func TestMaxCommitCap(t *testing.T) {
	src := `
        ldi r1, 100000
loop:   subi r1, r1, 1
        bne r1, loop
        halt`
	cfg := DefaultConfig()
	gen, err := emu.NewTraceGen(asm.MustAssemble("t", src))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed < 1000 || st.Committed > 1000+int64(cfg.CommitWidth) {
		t.Errorf("committed = %d, want ≈ 1000", st.Committed)
	}
}
