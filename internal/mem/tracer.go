package mem

// CohTracer is the conformance harness's window into the coherence
// machinery: every L1 state transition and every L2 grant is reported
// through it when one is attached (System.SetCohTracer). Production runs
// never attach one — every emission site is nil-guarded on both the
// tracer and the individual hook, so the cost on the hot path is a
// pointer test.
//
// The callbacks run synchronously inside the hierarchy's access calls,
// so they observe transitions in the same global (cycle, core-index)
// order the hierarchy applies them in and need no locking of their own.
type CohTracer struct {
	// StateChange reports one L1 copy's transition: core's copy of
	// lineAddr moved from from to to because of ev. Self-loop
	// transitions (a read hit on a Shared line) are reported too — the
	// conformance checker verifies them against the declared table like
	// any other edge. Transitions of refills still in flight are
	// reported the same way as installed lines.
	StateChange func(core int, lineAddr uint64, from, to State, ev Event)

	// Fill reports the state the L2 granted core's copy of lineAddr on a
	// fetch or directory join, and which remote core forwarded the data
	// (-1 when the L2's own copy was current — a fresh refill or a
	// clean-at-L2 hit).
	Fill func(core int, lineAddr uint64, grant State, src int)
}
