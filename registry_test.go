package vpr_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// TestRegistryNamesUnique checks every name-keyed registry a run is
// selected from: each name is non-empty and unique within its registry.
// The lookups return the first match, so a duplicate would silently
// shadow its twin, and an empty name could never be selected at all.
func TestRegistryNamesUnique(t *testing.T) {
	names := func(n int, name func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name(i)
		}
		return out
	}
	presets, protocols, dirs := synth.Presets(), mem.Protocols(), mem.DirectoryKinds()
	fetch, issue := pipeline.FetchPolicies(), pipeline.IssueSelects()
	for _, reg := range []struct {
		registry string
		names    []string
	}{
		{"experiments", experiments.Names()},
		{"workloads", workloads.Names()},
		{"synth presets", names(len(presets), func(i int) string { return presets[i].Name })},
		{"coherence protocols", names(len(protocols), func(i int) string { return protocols[i].Name() })},
		{"directory kinds", names(len(dirs), func(i int) string { return dirs[i].Name })},
		{"fetch policies", names(len(fetch), func(i int) string { return fetch[i].Name })},
		{"issue selects", names(len(issue), func(i int) string { return issue[i].Name })},
	} {
		if len(reg.names) == 0 {
			t.Errorf("%s: registry is empty", reg.registry)
		}
		seen := make(map[string]bool, len(reg.names))
		for i, name := range reg.names {
			switch {
			case name == "":
				t.Errorf("%s: entry %d has an empty name", reg.registry, i)
			case seen[name]:
				t.Errorf("%s: duplicate name %q (entry %d)", reg.registry, name, i)
			}
			seen[name] = true
		}
	}
}
