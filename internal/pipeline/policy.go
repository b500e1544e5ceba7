package pipeline

import "fmt"

// This file is the pluggable stage-policy and probe surface of the
// pipeline: the machine's behaviour at the fetch and issue stages is
// composed from small interfaces instead of hard-coded stage logic, and a
// Probe can observe the kernel's events cycle by cycle. The zero value of
// Policies reproduces the paper's machine exactly; the built-in
// alternatives (ICOUNT fetch for SMT, load-first and longest-latency-first
// issue selection) are registered by name so configurations, experiment
// options and CLI flags can refer to them without importing concrete
// types.

// Policies composes the pluggable per-stage behaviours of a Config. The
// zero value selects the paper's §4.1 machine everywhere: round-robin
// fetch (with one thread, the paper's front end), oldest-first issue
// selection, and no observation.
//
//vpr:cachekey
type Policies struct {
	// Fetch decides which hardware thread receives the front end's
	// bandwidth each cycle. nil selects round-robin.
	Fetch FetchPolicy
	// Issue ranks ready instructions for the issue stage's selection.
	// nil selects oldest-first.
	Issue IssueSelect
	// Probe, when non-nil, observes kernel events (see Probe). Probes
	// never change simulation results, so GoString excludes them from
	// the result-cache key (the engine bypasses cache reads for probed
	// runs instead).
	//
	//vpr:nocachekey pure observer; the engine bypasses the cache for probed runs
	Probe Probe
}

// GoString renders the policy selection canonically by name — it is what
// the engine's result-cache key hashes (via %#v on Config), so two
// configurations selecting the same named policies share cache entries
// regardless of which instances they hold. The probe is deliberately
// excluded: observers do not change simulation results (the engine
// instead bypasses cache reads for probed runs, so probes always see a
// real simulation).
func (p Policies) GoString() string {
	return fmt.Sprintf("pipeline.Policies{Fetch:%q, Issue:%q}",
		fetchPolicyName(p.Fetch), issueSelectName(p.Issue))
}

func fetchPolicyName(p FetchPolicy) string {
	if p == nil {
		return FetchRoundRobin
	}
	return p.Name()
}

func issueSelectName(p IssueSelect) string {
	if p == nil {
		return IssueOldestFirst
	}
	return p.Name()
}

// --- fetch policies ----------------------------------------------------------

// FetchCandidate describes one hardware thread able to fetch this cycle
// (trace not exhausted, front end not frozen on a mispredicted branch,
// fetch buffer not full).
type FetchCandidate struct {
	TID      int // hardware thread id
	InFlight int // reorder-buffer occupancy: dispatched, uncommitted
	Buffered int // fetched but not yet dispatched (fetch-buffer entries)
}

// FetchPolicy decides which hardware thread receives the whole fetch
// bandwidth each cycle — the classic SMT fetch-gating knob. With a single
// thread every policy degenerates to the paper's front end.
type FetchPolicy interface {
	// Name identifies the policy. It participates in the engine's
	// result-cache key, so two policies sharing a name must schedule
	// identically (the same contract as sim.Spec.GenID).
	Name() string
	// Pick returns the index into cands of the thread to fetch. cands is
	// never empty, is ordered by the kernel's per-cycle round-robin
	// rotation, is reused across cycles and must not be retained. An
	// out-of-range return fetches nothing this cycle.
	Pick(cycle int64, cands []FetchCandidate) int
}

// Registered fetch-policy names.
const (
	// FetchRoundRobin gives the bandwidth to the first fetchable thread
	// in rotation order — the default, and with one thread the paper's
	// front end.
	FetchRoundRobin = "round-robin"
	// FetchICount favours the fetchable thread with the fewest
	// instructions in flight (Tullsen et al., ISCA '96): threads that
	// drain fast fetch more, threads clogging the window fetch less.
	FetchICount = "icount"
)

type roundRobinFetch struct{}

func (roundRobinFetch) Name() string                         { return FetchRoundRobin }
func (roundRobinFetch) Pick(_ int64, _ []FetchCandidate) int { return 0 }

type icountFetch struct{}

func (icountFetch) Name() string { return FetchICount }

func (icountFetch) Pick(_ int64, cands []FetchCandidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].InFlight+cands[i].Buffered < cands[best].InFlight+cands[best].Buffered {
			best = i
		}
	}
	return best
}

// --- issue-select heuristics -------------------------------------------------

// IssueCandidate describes one ready instruction eligible for issue this
// cycle.
type IssueCandidate struct {
	Inum    int64 // instruction number; smaller = older
	Latency int   // execution latency (Table 1)
	IsLoad  bool
	IsStore bool
}

// IssueSelect ranks a thread's ready instructions for the issue stage:
// the kernel attempts candidates in the order Rank leaves them, under its
// usual width, register-file-port and functional-unit budgets, so a
// heuristic reorders who gets scarce resources but cannot violate
// structural limits.
type IssueSelect interface {
	// Name identifies the heuristic; the same cache-key contract as
	// FetchPolicy.Name applies.
	Name() string
	// Rank reorders cands in place. cands arrives oldest-first
	// (ascending Inum), is reused across cycles and must not be
	// retained or resized.
	Rank(cycle int64, cands []IssueCandidate)
}

// Registered issue-select names.
const (
	// IssueOldestFirst attempts ready instructions in program order —
	// the default, the paper's machine.
	IssueOldestFirst = "oldest-first"
	// IssueLoadFirst attempts ready loads before everything else
	// (program order within each group), modelling memory-level
	// parallelism greed: get misses into the cache early.
	IssueLoadFirst = "load-first"
	// IssueLongLatencyFirst attempts the longest-latency ready
	// instructions first (program order among equals), starting long
	// dependence chains as early as possible.
	IssueLongLatencyFirst = "long-latency-first"
)

type oldestFirstIssue struct{}

func (oldestFirstIssue) Name() string                     { return IssueOldestFirst }
func (oldestFirstIssue) Rank(_ int64, _ []IssueCandidate) {}

type loadFirstIssue struct{}

func (loadFirstIssue) Name() string { return IssueLoadFirst }

func (loadFirstIssue) Rank(_ int64, cands []IssueCandidate) {
	stableRank(cands, func(a, b IssueCandidate) bool { return a.IsLoad && !b.IsLoad })
}

type longLatencyFirstIssue struct{}

func (longLatencyFirstIssue) Name() string { return IssueLongLatencyFirst }

func (longLatencyFirstIssue) Rank(_ int64, cands []IssueCandidate) {
	stableRank(cands, func(a, b IssueCandidate) bool { return a.Latency > b.Latency })
}

// stableRank is an in-place stable insertion sort: candidate lists are
// short (bounded by the ready instructions of one thread in one cycle),
// and avoiding sort.SliceStable keeps the ranked issue path allocation-free.
func stableRank(cands []IssueCandidate, less func(a, b IssueCandidate) bool) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// --- probes ------------------------------------------------------------------

// Probe observes kernel events. Methods are invoked synchronously from
// the simulation loop with scalar arguments only — attaching a probe adds
// branch-and-call overhead but no allocations to the hot path. Events
// fire identically under both scheduling kernels.
//
// A probe attached to an Engine (engine.WithProbe / vpr.WithProbe) is
// shared by every simulation the engine runs and may be invoked from
// several goroutines at once when batches run in parallel; such probes
// must be safe for concurrent use. Embed BaseProbe to implement only the
// events of interest.
type Probe interface {
	// CycleStart fires at the top of every simulated cycle.
	CycleStart(cycle int64)
	// Dispatched fires when an instruction is renamed into the window.
	Dispatched(cycle int64, tid int, inum int64)
	// Issued fires when an instruction is selected for execution
	// (re-executions fire again).
	Issued(cycle int64, tid int, inum int64)
	// Completed fires when an instruction finishes write-back.
	Completed(cycle int64, tid int, inum int64)
	// Committed fires when an instruction retires, in machine order.
	Committed(cycle int64, tid int, inum int64)
	// Squashed fires when a memory-order violation flushes a thread
	// from fromInum to its window tail (flushed instructions total).
	Squashed(cycle int64, tid int, fromInum int64, flushed int)
	// AllocRefused fires each cycle the renamer refuses a physical
	// register: at issue (VP issue allocation; one event per blocked
	// cycle, mirroring the IssueBlocks statistic) or at write-back (VP
	// write-back allocation; the instruction re-executes).
	AllocRefused(cycle int64, tid int, inum int64, atIssue bool)
}

// BaseProbe is a Probe whose every method is a no-op; embed it and
// override the events of interest.
type BaseProbe struct{}

// CycleStart implements Probe.
func (BaseProbe) CycleStart(int64) {}

// Dispatched implements Probe.
func (BaseProbe) Dispatched(int64, int, int64) {}

// Issued implements Probe.
func (BaseProbe) Issued(int64, int, int64) {}

// Completed implements Probe.
func (BaseProbe) Completed(int64, int, int64) {}

// Committed implements Probe.
func (BaseProbe) Committed(int64, int, int64) {}

// Squashed implements Probe.
func (BaseProbe) Squashed(int64, int, int64, int) {}

// AllocRefused implements Probe.
func (BaseProbe) AllocRefused(int64, int, int64, bool) {}

var _ Probe = BaseProbe{}

// --- policy registry ---------------------------------------------------------

// PolicyInfo describes one registered policy for listings and CLI help.
type PolicyInfo struct {
	Name        string
	Description string
}

var fetchRegistry = []struct {
	info PolicyInfo
	pol  FetchPolicy
}{
	{PolicyInfo{FetchRoundRobin, "first fetchable thread in rotation order (default; the paper's front end)"}, roundRobinFetch{}},
	{PolicyInfo{FetchICount, "fewest in-flight instructions first (Tullsen-style SMT fetch gating)"}, icountFetch{}},
}

var issueRegistry = []struct {
	info PolicyInfo
	sel  IssueSelect
}{
	{PolicyInfo{IssueOldestFirst, "ready instructions in program order (default; the paper's machine)"}, oldestFirstIssue{}},
	{PolicyInfo{IssueLoadFirst, "ready loads before everything else (memory-level parallelism greed)"}, loadFirstIssue{}},
	{PolicyInfo{IssueLongLatencyFirst, "longest execution latency first (start long chains early)"}, longLatencyFirstIssue{}},
}

// FetchPolicies lists the registered fetch policies, default first.
func FetchPolicies() []PolicyInfo {
	out := make([]PolicyInfo, len(fetchRegistry))
	for i, e := range fetchRegistry {
		out[i] = e.info
	}
	return out
}

// FetchPolicyByName returns the registered fetch policy.
func FetchPolicyByName(name string) (FetchPolicy, bool) {
	for _, e := range fetchRegistry {
		if e.info.Name == name {
			return e.pol, true
		}
	}
	return nil, false
}

// IssueSelects lists the registered issue-select heuristics, default first.
func IssueSelects() []PolicyInfo {
	out := make([]PolicyInfo, len(issueRegistry))
	for i, e := range issueRegistry {
		out[i] = e.info
	}
	return out
}

// IssueSelectByName returns the registered issue-select heuristic.
func IssueSelectByName(name string) (IssueSelect, bool) {
	for _, e := range issueRegistry {
		if e.info.Name == name {
			return e.sel, true
		}
	}
	return nil, false
}
