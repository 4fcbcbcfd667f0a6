package lint

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestRunAuditStaleIgnores: the audit reports directives that suppressed
// nothing, keeps live ones (including one only live at tier 2), and
// tier-1 audits would wrongly call tier-2 directives stale — which is
// why -audit-ignores always runs the full suite.
func TestRunAuditStaleIgnores(t *testing.T) {
	files := map[string]string{
		"internal/app/app.go": `package app

type sample struct{ v float64 }

func cmp(a, b float64) bool {
	//lint:ignore floatcmp exact by design
	return a == b
}

func clean(a, b int) bool {
	//lint:ignore floatcmp nothing here compares floats
	return a == b
}

func feq(a, b sample) bool {
	//lint:ignore epsflow exact comparison on quantized grid values
	return a.v == b.v
}
`,
	}
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	for rel, content := range files {
		mustWrite(t, root, rel, content)
	}

	diags, stale, err := RunAudit(Config{Root: root, Tier: 2}, "./...")
	if err != nil {
		t.Fatalf("RunAudit: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("all findings are suppressed, got %v", diags)
	}
	var got []string
	for _, s := range stale {
		got = append(got, fmt.Sprintf("%s:%d:%v", filepath.Base(s.File), s.Line, s.Rules))
	}
	if len(got) != 1 || got[0] != "app.go:11:[floatcmp]" {
		t.Fatalf("stale: got %v, want only the line-11 directive", got)
	}
	if stale[0].Reason != "nothing here compares floats" {
		t.Fatalf("reason: %q", stale[0].Reason)
	}

	// The same audit restricted to tier 1 cannot see epsflow fire, so it
	// wrongly reports the tier-2 directive as stale too.
	_, tier1Stale, err := RunAudit(Config{Root: root, Tier: 1, Analyzers: tier1Only()}, "./...")
	if err != nil {
		t.Fatalf("tier-1 RunAudit: %v", err)
	}
	if len(tier1Stale) != 2 {
		t.Fatalf("tier-1 audit should see 2 stale directives, got %v", tier1Stale)
	}
}

// tier1Only returns the syntactic subset of the suite.
func tier1Only() []*Analyzer {
	t1, _ := splitByTier(All())
	return t1
}
