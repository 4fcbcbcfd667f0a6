package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// runSource parses src as a single file of package pkg and returns the
// surviving diagnostics of one analyzer, formatted "line:rule".
func runSource(t *testing.T, a *Analyzer, pkg, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	diags := AnalyzeFiles(fset, []*ast.File{f}, pkg, []*Analyzer{a})
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%d:%s", d.Line, d.Rule))
	}
	return out
}

// runTier2 builds a temp module from files (path → content) and runs the
// given analyzers at tier 2, returning findings as "file:line:rule".
func runTier2(t *testing.T, analyzers []*Analyzer, files map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	for rel, content := range files {
		mustWrite(t, root, rel, content)
	}
	diags, err := Run(Config{Root: root, Analyzers: analyzers, Tier: 2}, "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Rule))
	}
	return out
}

// expectDiags asserts the exact diagnostic set.
func expectDiags(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("diagnostics: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostic %d: got %v, want %v", i, got, want)
		}
	}
}

func TestSeverityString(t *testing.T) {
	if SeverityError.String() != "error" || SeverityWarning.String() != "warning" {
		t.Fatalf("severity names: %v %v", SeverityError, SeverityWarning)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a.go", Line: 3, Col: 7, Rule: "floatcmp", Severity: "error", Message: "m"}
	want := "a.go:3:7: error: m [floatcmp]"
	if d.String() != want {
		t.Fatalf("String: got %q want %q", d.String(), want)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName(nope) should be nil")
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors(nil) {
		t.Fatal("empty set has no errors")
	}
	warn := []Diagnostic{{Severity: SeverityWarning.String()}}
	if HasErrors(warn) {
		t.Fatal("warnings alone must not fail the gate")
	}
	if !HasErrors(append(warn, Diagnostic{Severity: SeverityError.String()})) {
		t.Fatal("error severity must fail the gate")
	}
}

// TestSuppressionPlacement checks both sanctioned directive placements:
// the line above the finding and end-of-line on the finding itself, and
// that a directive for a different rule does not suppress.
func TestSuppressionPlacement(t *testing.T) {
	const above = `package p
func f(a, b float64) bool {
	//lint:ignore floatcmp test reason
	return a == b
}
`
	expectDiags(t, runSource(t, FloatCmp, "internal/x", above))

	const inline = `package p
func f(a, b float64) bool {
	return a == b //lint:ignore floatcmp test reason
}
`
	expectDiags(t, runSource(t, FloatCmp, "internal/x", inline))

	const wrongRule = `package p
func f(a, b float64) bool {
	//lint:ignore errclose not the right rule
	return a == b
}
`
	expectDiags(t, runSource(t, FloatCmp, "internal/x", wrongRule), "4:floatcmp")

	const wildcard = `package p
func f(a, b float64) bool {
	//lint:ignore * blanket
	return a == b
}
`
	expectDiags(t, runSource(t, FloatCmp, "internal/x", wildcard))

	const multiRule = `package p
func f(a, b float64) bool {
	//lint:ignore errclose,floatcmp two rules
	return a == b
}
`
	expectDiags(t, runSource(t, FloatCmp, "internal/x", multiRule))
}

// TestRunWalksTree exercises the directory runner end to end on a
// synthetic module.
func TestRunWalksTree(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	mustWrite(t, root, "internal/sub/bad.go", `package sub
func f(a, b float64) bool { return a != b }
`)
	mustWrite(t, root, "internal/sub/bad_test.go", `package sub
func g(a, b float64) bool { return a != b }
`)
	mustWrite(t, root, "testdata/skipme.go", "package broken {{{\n")

	diags, err := Run(Config{Root: root}, "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 || diags[0].Rule != "floatcmp" || diags[0].Line != 2 {
		t.Fatalf("want one floatcmp finding at line 2, got %v", diags)
	}

	withTests, err := Run(Config{Root: root, IncludeTests: true}, "./...")
	if err != nil {
		t.Fatalf("Run with tests: %v", err)
	}
	if len(withTests) != 2 {
		t.Fatalf("want 2 findings with tests included, got %v", withTests)
	}

	single, err := Run(Config{Root: root}, "./internal/sub")
	if err != nil {
		t.Fatalf("Run single dir: %v", err)
	}
	if len(single) != 1 {
		t.Fatalf("single-dir pattern: want 1 finding, got %v", single)
	}

	if _, err := Run(Config{Root: root}, "./missing"); err == nil {
		t.Fatal("bad pattern must error")
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n")
	sub := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := FindModuleRoot(sub)
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	// Resolve symlinks (macOS TMPDIR) before comparing.
	wantReal, _ := filepath.EvalSymlinks(root)
	gotReal, _ := filepath.EvalSymlinks(got)
	if gotReal != wantReal {
		t.Fatalf("root: got %s want %s", got, root)
	}
}

func mustWrite(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
