package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mem/conftest"
	"repro/internal/trace"
)

// Layer replays. The renamer and the memory hierarchy are called from
// inside the pipeline, out of the benchmark's reach, so the traced run
// stands in for their in-run cost by replaying the workload's own
// instruction and address streams through their public entry points.

// replayWindow is the in-flight instruction window of the renamer
// replay: the paper machine's reorder buffer.
const replayWindow = 128

// replayCore drives one renamer through recs in program order: rename,
// allocate at issue, read, complete, and commit oldest-first whenever the
// window is full or a register allocation is refused. Every instruction
// completes before a younger one renames, so a refusal is always
// resolved by committing older instructions. At the end the window
// drains and the renamer must hold exactly the architectural registers.
func replayCore(scheme core.Scheme, recs []trace.Record) (ns int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v replay: renamer panic: %v", scheme, p)
		}
	}()
	start := time.Now()
	r := core.New(scheme, core.DefaultParams())
	head, tail := int64(0), int64(0) // in-flight instruction numbers [head, tail)
	retire := func() bool {
		if head == tail {
			return false
		}
		r.Commit(head)
		head++
		return true
	}
	for i := range recs {
		inum := int64(i)
		if tail-head == replayWindow {
			retire()
		}
		for {
			if _, ok := r.Rename(inum, recs[i].Inst); ok {
				break
			}
			if !retire() {
				return 0, fmt.Errorf("%v replay: rename refused with an empty window at %d", scheme, inum)
			}
		}
		tail++
		for !r.AllocateAtIssue(inum) {
			if head == inum || !retire() {
				return 0, fmt.Errorf("%v replay: issue allocation refused for the oldest instruction %d", scheme, inum)
			}
		}
		r.NoteRead(inum, true, true)
		for {
			if _, ok := r.Complete(inum); ok {
				break
			}
			if head == inum || !retire() {
				return 0, fmt.Errorf("%v replay: write-back allocation refused for the oldest instruction %d", scheme, inum)
			}
		}
		r.Tick(inum, inum)
	}
	for retire() {
	}
	ns = int64(time.Since(start))
	if err := r.CheckInvariants(); err != nil {
		return 0, fmt.Errorf("%v replay: %w", scheme, err)
	}
	for _, c := range []isa.RegClass{isa.RegInt, isa.RegFP} {
		if n := r.InUse(c); n != isa.NumLogical {
			return 0, fmt.Errorf("%v replay: %d registers in use after drain, want %d", scheme, n, isa.NumLogical)
		}
	}
	return ns, nil
}

// memAccess is one load or store of a replayed address stream.
type memAccess struct {
	addr  uint64
	write bool
}

func addressStream(recs []trace.Record) []memAccess {
	var out []memAccess
	for _, r := range recs {
		info := r.Inst.Op.Info()
		if info.IsLoad || info.IsStore {
			out = append(out, memAccess{r.EA, info.IsStore})
		}
	}
	return out
}

// replayMem drives a memory system built like the workload's with one
// address stream per core: each cycle every core with accesses left
// presents its next one, in core-index order, and retries it next cycle
// when its MSHRs are full. A coh.Tracer (the conformance checker) is
// attached to the hierarchy. It returns the accesses performed, the host
// time they took and the system's final counters.
func replayMem(streams [][]memAccess, shared bool, coh mem.CoherenceConfig) (n int64, ns int64, st mem.Stats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mem replay: hierarchy panic: %v", p)
		}
	}()
	sys, err := mem.NewSystem(mem.L1FromCacheConfig(cache.DefaultConfig()), mem.DefaultL2Config(), len(streams), shared, coh)
	if err != nil {
		return 0, 0, mem.Stats{}, err
	}
	start := time.Now()
	pos := make([]int, len(streams))
	left := len(streams)
	now := int64(0)
	for left > 0 {
		now++
		for c, s := range streams {
			if pos[c] == len(s) {
				continue
			}
			a := s[pos[c]]
			if _, ok := sys.Port(c).Access(now, a.addr, a.write); ok {
				n++
				if pos[c]++; pos[c] == len(s) {
					left--
				}
			}
		}
	}
	for c := range streams {
		sys.Port(c).Drain(now + 1_000_000)
	}
	return n, int64(time.Since(start)), sys.Stats(), nil
}

// replayResult holds the layer replays' per-operation costs and the
// failures they found.
type replayResult struct {
	CoreNS   map[core.Scheme]float64 // host ns per replayed instruction
	MemNS    float64                 // host ns per replayed access
	Checks   int
	Failures []string
}

// runReplays replays in through every renamer and every memory system,
// then once more with the coherence conformance checker attached to each
// coherent system; any checker violation, or counters that differ from
// the unchecked replay, fail the run.
func runReplays(in replayInputs) replayResult {
	res := replayResult{CoreNS: map[core.Scheme]float64{}}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	for _, s := range schemes {
		var ns, instrs int64
		for _, recs := range in.Streams {
			res.Checks++
			d, err := replayCore(s, recs)
			if err != nil {
				fail("%v", err)
				continue
			}
			ns += d
			instrs += int64(len(recs))
		}
		if instrs > 0 {
			res.CoreNS[s] = float64(ns) / float64(instrs)
		}
	}
	var memNS, accesses int64
	for _, m := range in.Machines {
		streams := make([][]memAccess, len(m))
		for i, recs := range m {
			streams[i] = addressStream(recs)
		}
		res.Checks++
		n, d, st, err := replayMem(streams, in.Shared, in.Coh)
		if err != nil {
			fail("%v", err)
			continue
		}
		memNS += d
		accesses += n
		proto, err := mem.ProtocolByName(in.Coh.Protocol)
		if err != nil {
			fail("mem replay: %v", err)
			continue
		}
		ck := conftest.NewChecker(proto)
		coh := in.Coh
		coh.Tracer = ck.Tracer()
		res.Checks++
		_, _, checked, err := replayMem(streams, in.Shared, coh)
		switch {
		case err != nil:
			fail("checked %v", err)
		case len(ck.Errs) > 0:
			fail("mem replay: %d coherence violations, first: %s", len(ck.Errs), ck.Errs[0])
		case checked != st:
			fail("mem replay: attaching the checker changed the counters")
		}
	}
	if accesses > 0 {
		res.MemNS = float64(memNS) / float64(accesses)
	}
	return res
}
