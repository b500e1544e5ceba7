package pipeline

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/trace"
)

// The golden checker itself must be falsifiable: corrupting one operand
// value in an otherwise valid trace has to fail the run. Without this
// meta-test a silently disabled checker would void every equivalence test.
func TestGoldenCheckerDetectsCorruption(t *testing.T) {
	gen, err := emu.NewTraceGen(asm.MustAssemble("t", `
        ldi r1, 5
        ldi r2, 7
        add r3, r1, r2
        add r4, r3, r3
        halt`))
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(gen, 100)
	if len(recs) != 4 {
		t.Fatalf("trace length %d", len(recs))
	}

	// Control: the unmodified trace passes.
	cfg := DefaultConfig()
	cfg.ValueCheck = true
	sim, err := New(cfg, trace.FromSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(0); err != nil {
		t.Fatalf("clean trace failed: %v", err)
	}

	// Corrupt the producer's destination value: its consumer must trip
	// the checker. (Corrupting DstVal means the write-back stores a value
	// that no longer matches the consumer's recorded operand.)
	recs[2].DstVal = 999
	sim2, err := New(cfg, trace.FromSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim2.Run(0)
	if err == nil || !strings.Contains(err.Error(), "golden-model mismatch") {
		t.Fatalf("corrupted trace must fail the golden check, got %v", err)
	}

	// With checking disabled the same corruption passes silently —
	// proving the flag is what gates the verification.
	cfg.ValueCheck = false
	sim3, err := New(cfg, trace.FromSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim3.Run(0); err != nil {
		t.Fatalf("ValueCheck=false must not verify: %v", err)
	}
}

// Determinism: two runs of the same workload and configuration produce
// bit-identical statistics (experiments depend on this).
func TestSimulationDeterministic(t *testing.T) {
	run := func() Stats {
		gen, err := emu.NewTraceGen(asm.MustAssemble("t", `
        ldi  r1, 1000
        ldi  r2, 1048576
loop:   ldq  r3, 0(r2)
        add  r4, r3, r1
        stq  8(r2), r4
        addi r2, r2, 32
        subi r1, r1, 1
        bne  r1, loop
        halt`))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(DefaultConfig(), gen)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Arch() != b.Arch() {
		t.Errorf("two identical runs differ:\n%s\n%s", a, b)
	}
	if a.WallSeconds <= 0 || a.CyclesPerSec <= 0 || a.InstrsPerSec <= 0 {
		t.Errorf("throughput fields not populated: %+v", a)
	}
	checkL1Accounting(t, a)
}
