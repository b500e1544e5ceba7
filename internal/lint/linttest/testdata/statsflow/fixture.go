// Package fixture seeds statsflow violations: a //vpr:stats struct with
// one counter its //vpr:statsink aggregate drops, one it folds in, one
// explicitly exempted; a second stats struct with no sink at all; and a
// struct embedding other layers' counter structs, one of which its sink
// never folds.
package fixture

// Stats is the counter set the sink below must fold completely.
//
//vpr:stats
type Stats struct {
	Hits   int64
	Misses int64 // want `counter fixture.Stats.Misses is not referenced by any //vpr:statsink aggregate`
	// Debug is derived at print time, never merged.
	//vpr:statsexempt display only
	Debug int64
}

// Add folds src into s — but forgets Misses.
//
//vpr:statsink Stats
func (s *Stats) Add(src Stats) {
	s.Hits += src.Hits
}

// Orphan has counters and no aggregate anywhere.
//
//vpr:stats
type Orphan struct { // want `//vpr:stats struct fixture.Orphan has no //vpr:statsink aggregate`
	N int64
}

// Layer is one layer's counter list, embedded by Run below.
//
//vpr:stats
type Layer struct {
	N int64
}

// Add folds src into s.
//
//vpr:statsink Layer
func (s *Layer) Add(src Layer) {
	s.N += src.N
}

// Host is embedded by pointer and never folded.
type Host struct {
	Seconds float64
}

// Run embeds Layer, Stats and *Host: an embedded field is a field named
// after its type, so the sink must fold each one whole.
//
//vpr:stats
type Run struct {
	Cycles int64
	Layer
	Stats // want `counter fixture.Run.Stats is not referenced by any //vpr:statsink aggregate`
	*Host // want `counter fixture.Run.Host is not referenced by any //vpr:statsink aggregate`
}

// addRun folds the run's own counter and the embedded Layer, but neither
// Stats nor Host: promoted fields (a.Hits) do not count as folding them.
//
//vpr:statsink Run
func addRun(agg *Run, a Run) {
	agg.Cycles += a.Cycles
	agg.Layer.Add(a.Layer)
	agg.Hits += a.Hits
}
