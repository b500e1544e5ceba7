package main

import (
	"time"

	"repro/internal/trace"
)

// Tracing for the traced run. Spans are recorded from the benchmark's
// own code, around its calls into each module's public functions; the
// simulator itself is never instrumented. Frontend calls (one per
// NextBatch refill) are too many to keep individually, so the generator
// wrapper folds them into per-frontend counters instead.

// span is one timed call at a layer boundary. The benchmark's spans do
// not nest: frontend time, the only child, is counted by the generator
// wrapper inside the pipeline.run spans.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
}

// frontAcc accumulates one trace frontend's cost: host time inside its
// Next/NextBatch calls, records produced and calls made.
type frontAcc struct {
	NS, Records, Calls, BatchCalls int64
}

// tracer records spans in memory. A nil *tracer is the untraced run:
// every method is a no-op, so the timed and traced paths share code.
type tracer struct {
	t0    time.Time
	spans []span
	front map[string]*frontAcc
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), front: map[string]*frontAcc{}}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// spanned sums the durations of every span.
func (t *tracer) spanned() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		d += s.End - s.Start
	}
	return d
}

// wrap returns gen unchanged when untraced; traced, it returns gen
// wrapped so that every call is timed into the named frontend's
// counters.
func (t *tracer) wrap(frontend string, gen trace.Generator) trace.Generator {
	if t == nil {
		return gen
	}
	acc := t.front[frontend]
	if acc == nil {
		acc = &frontAcc{}
		t.front[frontend] = acc
	}
	return wrapGen(gen, acc)
}

// frontend returns the named frontend's counters (zero if unused).
func (t *tracer) frontend(name string) frontAcc {
	if a := t.front[name]; a != nil {
		return *a
	}
	return frontAcc{}
}

// wrapGen times gen's calls into acc. When gen implements
// trace.BatchGenerator the wrapper does too, so consumers keep the
// NextBatch fast path; otherwise it offers Next alone, and consumers fall
// back to per-record calls exactly as they would on gen itself.
func wrapGen(gen trace.Generator, acc *frontAcc) trace.Generator {
	if b, ok := gen.(trace.BatchGenerator); ok {
		return &timedBatchGen{timedGen{gen: gen, acc: acc}, b}
	}
	return &timedGen{gen: gen, acc: acc}
}

type timedGen struct {
	gen trace.Generator
	acc *frontAcc
}

func (g *timedGen) Next() (trace.Record, bool) {
	start := time.Now()
	r, ok := g.gen.Next()
	g.acc.NS += int64(time.Since(start))
	g.acc.Calls++
	if ok {
		g.acc.Records++
	}
	return r, ok
}

type timedBatchGen struct {
	timedGen
	batch trace.BatchGenerator
}

func (g *timedBatchGen) NextBatch(dst []trace.Record) int {
	start := time.Now()
	n := g.batch.NextBatch(dst)
	g.acc.NS += int64(time.Since(start))
	g.acc.Calls++
	g.acc.BatchCalls++
	g.acc.Records += int64(n)
	return n
}
