package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the CLI to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const dirtySource = `package sub
func f(a, b float64) bool { return a == b }
`

const suppressedSource = `package sub
func f(a, b float64) bool {
	//lint:ignore floatcmp fixture reason
	return a == b
}
`

const cleanSource = `package sub
func f(a, b int) bool { return a == b }
`

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitZeroOnCleanTree(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/ok.go": cleanSource})
	code, stdout, stderr := runCLI(t, "-C", root, "./...")
	if code != 0 {
		t.Fatalf("exit %d on clean tree; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean tree should print nothing, got %q", stdout)
	}
}

func TestExitOneOnFindings(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/bad.go": dirtySource})
	code, stdout, _ := runCLI(t, "-C", root, "./...")
	if code != 1 {
		t.Fatalf("exit %d on dirty tree, want 1; stdout=%q", code, stdout)
	}
	if !strings.Contains(stdout, "floatcmp") || !strings.Contains(stdout, "bad.go:2") {
		t.Fatalf("finding not reported: %q", stdout)
	}
	if !strings.Contains(stdout, "1 finding(s)") {
		t.Fatalf("summary line missing: %q", stdout)
	}
}

func TestSuppressionComment(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/ok.go": suppressedSource})
	code, stdout, stderr := runCLI(t, "-C", root, "./...")
	if code != 0 {
		t.Fatalf("suppressed finding must not fail: exit %d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/bad.go": dirtySource})
	code, stdout, _ := runCLI(t, "-C", root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d", len(diags))
	}
	d := diags[0]
	if d["rule"] != "floatcmp" || d["severity"] != "error" || d["line"] != float64(2) {
		t.Fatalf("unexpected diagnostic payload: %v", d)
	}
}

func TestJSONOutputEmptyArrayOnClean(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/ok.go": cleanSource})
	code, stdout, _ := runCLI(t, "-C", root, "-json", "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("clean JSON output should be [], got %q", stdout)
	}
}

func TestRulesSubset(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/bad.go": dirtySource})
	// errclose alone cannot see the float comparison.
	code, stdout, _ := runCLI(t, "-C", root, "-rules", "errclose", "./...")
	if code != 0 {
		t.Fatalf("rule subset should be clean: exit %d stdout=%q", code, stdout)
	}
	code, _, stderr := runCLI(t, "-C", root, "-rules", "bogus", "./...")
	if code != 2 || !strings.Contains(stderr, "unknown rule") {
		t.Fatalf("unknown rule: exit %d stderr=%q", code, stderr)
	}
}

func TestTestsFlag(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sub/ok.go":         cleanSource,
		"internal/sub/dirty_test.go": "package sub\nfunc g(a, b float64) bool { return a == b }\n",
	})
	if code, _, _ := runCLI(t, "-C", root, "./..."); code != 0 {
		t.Fatalf("test files must be skipped by default (exit %d)", code)
	}
	if code, _, _ := runCLI(t, "-C", root, "-tests", "./..."); code != 1 {
		t.Fatalf("-tests must include test files (exit %d)", code)
	}
}

func TestListFlag(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, rule := range []string{"floatcmp", "errclose", "epsflow"} {
		if !strings.Contains(stdout, rule) {
			t.Fatalf("-list missing %s:\n%s", rule, stdout)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "-definitely-not-a-flag"); code != 2 {
		t.Fatalf("bad flag should exit 2, got %d", code)
	}
	root := writeModule(t, map[string]string{"internal/sub/ok.go": cleanSource})
	if code, _, _ := runCLI(t, "-C", root, "./no/such/dir"); code != 2 {
		t.Fatalf("bad pattern should exit 2, got %d", code)
	}
	if code, _, _ := runCLI(t, "-C", t.TempDir()); code != 2 {
		t.Fatalf("no go.mod should exit 2, got %d", code)
	}
}

func TestChdirScopesPatterns(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/bad/bad.go": dirtySource,
		"internal/ok/ok.go":   cleanSource,
	})
	// From inside internal/ok, ./... must only cover that subtree.
	code, stdout, _ := runCLI(t, "-C", filepath.Join(root, "internal", "ok"), "./...")
	if code != 0 {
		t.Fatalf("scoped run saw findings outside its subtree: exit %d stdout=%q", code, stdout)
	}
	code, _, _ = runCLI(t, "-C", filepath.Join(root, "internal", "bad"), "./...")
	if code != 1 {
		t.Fatalf("scoped run missed its own findings: exit %d", code)
	}
}

func TestParseErrorExitsTwo(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/broken.go": "package sub {{{\n"})
	code, _, stderr := runCLI(t, "-C", root, "./...")
	if code != 2 || stderr == "" {
		t.Fatalf("parse error: exit %d stderr=%q", code, stderr)
	}
}

// typedEscapeSource compares floats behind a struct field, which the
// syntactic floatcmp rule cannot see: only the tier-2 epsflow rule
// (with type information) flags it.
const typedEscapeSource = `package sub

type pt struct{ x float64 }

func eq(a, b pt) bool { return a.x == b.x }
`

func TestTierFlag(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/esc.go": typedEscapeSource})
	code, stdout, _ := runCLI(t, "-C", root, "./...")
	if code != 1 || !strings.Contains(stdout, "epsflow") {
		t.Fatalf("default tier 2 must flag the typed escape: exit %d stdout=%q", code, stdout)
	}
	code, stdout, _ = runCLI(t, "-C", root, "-tier", "1", "./...")
	if code != 0 {
		t.Fatalf("-tier 1 must not run the type-aware rules: exit %d stdout=%q", code, stdout)
	}
	code, _, stderr := runCLI(t, "-C", root, "-tier", "3", "./...")
	if code != 2 || !strings.Contains(stderr, "-tier") {
		t.Fatalf("bad tier: exit %d stderr=%q", code, stderr)
	}
}

// genericEscapeSource compares a type parameter inside a helper and
// instantiates it with float64: epsflow reports the call site and attaches
// the helper's comparison as the path.
const genericEscapeSource = `package sub

func eq[T comparable](a, b T) bool { return a == b }

func same(x, y float64) bool { return eq(x, y) }
`

func TestTextOutputPrintsPath(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/gen.go": genericEscapeSource})
	code, stdout, _ := runCLI(t, "-C", root, "./...")
	if code != 1 || !strings.Contains(stdout, "epsflow") {
		t.Fatalf("epsflow finding missing: exit %d stdout=%q", code, stdout)
	}
	if !strings.Contains(stdout, "\t") || !strings.Contains(stdout, "instantiated with float64") {
		t.Fatalf("path steps should print indented under the finding:\n%s", stdout)
	}
}

func TestAuditIgnoresFlag(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/sub/ok.go": suppressedSource})
	if code, stdout, _ := runCLI(t, "-C", root, "-audit-ignores", "./..."); code != 0 {
		t.Fatalf("live directive reported stale: exit %d stdout=%q", code, stdout)
	}

	root = writeModule(t, map[string]string{
		"internal/sub/ok.go": "package sub\n\nfunc f(a, b int) bool {\n\t//lint:ignore floatcmp these are ints now\n\treturn a == b\n}\n",
	})
	code, stdout, _ := runCLI(t, "-C", root, "-audit-ignores", "./...")
	if code != 1 {
		t.Fatalf("stale directive must exit 1: exit %d stdout=%q", code, stdout)
	}
	if !strings.Contains(stdout, "ok.go:4: stale //lint:ignore floatcmp") || !strings.Contains(stdout, "these are ints now") {
		t.Fatalf("stale report: %q", stdout)
	}
}
