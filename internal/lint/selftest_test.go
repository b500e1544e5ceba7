package lint_test

import (
	"os/exec"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// Waiver counts of the tree, per build-tag variant: the scanoracle
// variant adds the scan kernel's waivers. TestRepoClean holds the tree
// to exactly these numbers, so a new waiver is a reviewed edit here and
// a removed one lowers the constant in the same change.
const (
	waiversDefault    = 52
	waiversScanOracle = 54
)

// TestRepoClean runs every analyzer over the repository itself, in both
// build-tag variants, and requires zero findings and the exact waiver
// count: the tree must stay lint-clean, and any new invariant violation
// or unreviewed waiver fails `go test ./...` before it ever reaches CI.
func TestRepoClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flags   []string
		waivers int
	}{
		{name: "default", flags: nil, waivers: waiversDefault},
		{name: "scanoracle", flags: []string{"-tags=scanoracle"}, waivers: waiversScanOracle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset, pkgs, err := analysis.Load(analysis.Config{Dir: "../..", BuildFlags: tc.flags}, "./...")
			if err != nil {
				t.Fatalf("loading repo: %v", err)
			}
			diags, err := analysis.Run(fset, pkgs, lint.Analyzers())
			if err != nil {
				t.Fatalf("running analyzers: %v", err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
			}
			if got := lint.CountWaivers(fset, pkgs); got != tc.waivers {
				t.Errorf("%d waiver directives, want exactly %d — lower the constant when a waiver goes; raising it needs a justification", got, tc.waivers)
			}
		})
	}
}

// TestVplintExitsZero drives the real cmd/vplint binary the way CI does
// and requires a clean exit — the module-level acceptance check.
func TestVplintExitsZero(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/vplint", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/vplint ./... failed: %v\n%s", err, out)
	}
}
