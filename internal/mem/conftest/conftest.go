// Package conftest is the coherence-protocol conformance harness: it
// holds every registered Protocol (internal/mem/protocol.go) to the
// state machine it declares, over every registered Directory
// representation.
//
// The harness checks three layers:
//
//  1. Static (TestTransitionTablesWellFormed, TestHooksMatchTables):
//     every protocol's Transitions() table is enumerated over the full
//     (state × event) grid — each pair is either declared impossible
//     (no entry), a single unconditional edge, or a GuardSole/
//     GuardShared pair — and the table must agree with the decision
//     hooks (ReadFillState, NeedsOwnership, OnRemoteRead) that induce
//     it.
//  2. Dynamic (Checker, attached as a mem.CohTracer): randomized
//     workloads drive a real System while the Checker shadows every
//     per-core line state. Every transition the hierarchy performs must
//     be a declared edge, observed `from` states must match the shadow,
//     at most one core may hold a line in an exclusive state (E/O/M),
//     exclusive grants require every other registered copy Invalid, and
//     a read served by the L2 requires the L2's data to be current —
//     the single-writer / no-stale-read heart of coherence.
//  3. Fuzz (FuzzDirectoryTransitions, FuzzProtocolInterleaving):
//     native Go fuzz targets over directory transition sequences and
//     cross-core access interleavings.
//
// # The write-back window
//
// One inherited artifact shapes the shadow model. When an L1 evicts a
// dirty victim, the write-back (EvWriteback, M/O→S) removes the core
// from the directory immediately, but the copy stays valid — readable,
// even re-dirtyable — until the incoming refill overwrites its frame
// (EvReplace). During that window the directory has forgotten the copy:
// a remote core can be granted Exclusive or Modified while the zombie
// Shared copy still answers local hits. The Checker marks such copies
// zombie and excludes them from the exclusivity assertions; everything
// else about them (declared edges, shadow agreement) is still enforced.
// The companion artifact — a zombie re-dirtied by a local write and then
// replaced, losing the store — is declared in every protocol's table as
// the M-Replace→I edge.
//
// The Checker deliberately never calls into the hierarchy — it only
// listens — so it lives in a non-test file usable by both the tests and
// the fuzz targets; the code that drives Access/Drain sits in _test.go
// files.
package conftest

import (
	"fmt"

	"repro/internal/mem"
)

// Edge is one observed or declared transition, guard-erased: the dynamic
// checker cannot see the directory's sole/shared view at event time, so
// a guarded declared pair collapses to two acceptable edges.
type Edge struct {
	From mem.State
	Ev   mem.Event
	To   mem.State
}

func (e Edge) String() string {
	return fmt.Sprintf("%v -%v-> %v", e.From, e.Ev, e.To)
}

// DeclaredEdges collapses a protocol's transition table to its
// guard-erased edge set.
func DeclaredEdges(p mem.Protocol) map[Edge]bool {
	out := make(map[Edge]bool)
	for _, tr := range p.Transitions() {
		out[Edge{tr.From, tr.Ev, tr.To}] = true
	}
	return out
}

// copyKey identifies one core's copy of one line.
type copyKey struct {
	core int
	line uint64
}

// copyState is the shadow of one copy: its protocol state plus whether
// it sits in the write-back window (see the package comment).
type copyState struct {
	st     mem.State
	zombie bool
}

// Checker is the dynamic conformance oracle. Attach Tracer() to a
// coherent System (SetCohTracer) built with the same protocol, drive any
// workload through it in the usual (cycle, core-index) order, then read
// Errs. The callbacks run synchronously inside the hierarchy's access
// calls, so the Checker needs no locking.
type Checker struct {
	proto    mem.Protocol
	declared map[Edge]bool

	// state shadows every (core, line) copy the tracer has reported.
	// Dirty states are always accurate (giving one up is always traced);
	// clean states are too, because even silent replacement is traced at
	// install time (EvReplace).
	state map[copyKey]copyState

	// l2stale marks lines whose only current data is a dirty L1 copy, so
	// a fill served from the L2 (Fill src == -1) would read stale data.
	// A line becomes stale when some copy reaches Modified and fresh
	// again when dirty data flows back (write-back, forward, recall) —
	// or is lost to the dirty-replace artifact, which the tracer reports
	// as the declared M-Replace→I edge and the checker then treats as
	// fresh to match the hierarchy's own (documented) behaviour.
	l2stale map[uint64]bool

	// Seen counts every observed state-change edge and Grants every fill
	// state — the dynamic coverage report.
	Seen   map[Edge]int
	Grants map[mem.State]int

	// Errs collects invariant violations, capped so a broken run cannot
	// allocate without bound.
	Errs []string
}

// NewChecker builds a checker for one protocol.
func NewChecker(p mem.Protocol) *Checker {
	return &Checker{
		proto:    p,
		declared: DeclaredEdges(p),
		state:    make(map[copyKey]copyState),
		l2stale:  make(map[uint64]bool),
		Seen:     make(map[Edge]int),
		Grants:   make(map[mem.State]int),
	}
}

const maxErrs = 20

func (c *Checker) errf(format string, args ...interface{}) {
	if len(c.Errs) < maxErrs {
		c.Errs = append(c.Errs, fmt.Sprintf(format, args...))
	}
}

func exclusiveState(st mem.State) bool {
	return st == mem.Exclusive || st == mem.Owned || st == mem.Modified
}

// setState moves one shadowed copy.
func (c *Checker) setState(k copyKey, to mem.State, zombie bool) {
	if to == mem.Invalid {
		delete(c.state, k)
		return
	}
	c.state[k] = copyState{st: to, zombie: zombie}
}

// checkExclusive verifies the single-writer invariant around one core
// entering an exclusive state of a line: every other core's registered
// (non-zombie) copy must be Invalid.
func (c *Checker) checkExclusive(core int, line uint64, entering mem.State) {
	for other, cs := range c.state {
		if other.line == line && other.core != core && !cs.zombie {
			c.errf("%s: core %d entered %v of line %#x while core %d still holds %v (single-writer violated)",
				c.proto.Name(), core, entering, line, other.core, cs.st)
		}
	}
}

// Tracer returns the mem.CohTracer to attach via System.SetCohTracer.
func (c *Checker) Tracer() *mem.CohTracer {
	return &mem.CohTracer{
		StateChange: c.stateChange,
		Fill:        c.fill,
	}
}

func (c *Checker) stateChange(core int, line uint64, from, to mem.State, ev mem.Event) {
	k := copyKey{core, line}
	e := Edge{from, ev, to}
	c.Seen[e]++
	if !c.declared[e] {
		c.errf("%s: undeclared transition %v (core %d line %#x)", c.proto.Name(), e, core, line)
	}
	cur := c.state[k]
	if cur.st != from {
		c.errf("%s: core %d line %#x reports %v on event %v but shadow holds %v",
			c.proto.Name(), core, line, from, ev, cur.st)
	}
	// A copy enters the write-back window when its dirty data departs at
	// eviction; it stays zombie only while it lingers in Shared. Leaving
	// for Modified means an Upgrade re-registered it with the directory;
	// leaving for Invalid ends the window with the copy.
	zombie := ev == mem.EvWriteback || (cur.zombie && to == mem.Shared)
	if exclusiveState(to) && !exclusiveState(from) {
		c.checkExclusive(core, line, to)
	}
	c.setState(k, to, zombie)

	// L2 data currency: dirty data leaves an L1 toward the L2 (or, on a
	// forward, another L1) exactly when a dirty copy moves to a
	// non-dirty state; the dirty-replace artifact loses the data but the
	// hierarchy proceeds as if it landed, so the shadow does too.
	if to == mem.Modified {
		c.l2stale[line] = true
	} else if from.Dirty() && !to.Dirty() {
		c.l2stale[line] = false
	}
}

func (c *Checker) fill(core int, line uint64, grant mem.State, src int) {
	k := copyKey{core, line}
	c.Grants[grant]++
	if grant == mem.Invalid {
		c.errf("%s: core %d line %#x granted Invalid", c.proto.Name(), core, line)
		return
	}
	if cur := c.state[k]; cur.st != mem.Invalid {
		c.errf("%s: core %d granted %v of line %#x while its own shadow holds %v (fetch without a miss)",
			c.proto.Name(), core, grant, line, cur.st)
	}
	if exclusiveState(grant) {
		c.checkExclusive(core, line, grant)
	}
	if src == core {
		c.errf("%s: core %d line %#x forwarded from itself", c.proto.Name(), core, line)
	}
	if src < 0 && c.l2stale[line] {
		c.errf("%s: core %d filled line %#x from the L2 while a dirty copy exists elsewhere (stale read)",
			c.proto.Name(), core, line)
	}
	if grant == mem.Modified {
		c.l2stale[line] = true
	}
	c.setState(k, grant, false)
}

// State returns the shadowed state of core's copy of line (Invalid when
// untracked) — for tests that assert specific end states.
func (c *Checker) State(core int, line uint64) mem.State {
	return c.state[copyKey{core, line}].st
}
