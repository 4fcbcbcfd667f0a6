package lint

import (
	"strings"
	"testing"
)

// TestLoaderResolvesLocalImports: a package importing a sibling package
// of the same module type-checks through the loader, and results are
// memoized.
func TestLoaderResolvesLocalImports(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	mustWrite(t, root, "internal/util/util.go", `package util

func Double(x int) int { return 2 * x }
`)
	mustWrite(t, root, "internal/app/app.go", `package app

import "fixture/internal/util"

func Quad(x int) int { return util.Double(util.Double(x)) }
`)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.Module() != "fixture" {
		t.Fatalf("module: got %q", l.Module())
	}
	lp := l.Load("internal/app")
	if lp.Err != nil {
		t.Fatalf("Load: %v", lp.Err)
	}
	if lp.Pkg == nil || lp.Info == nil || len(lp.Files) != 1 {
		t.Fatalf("incomplete Loaded: %+v", lp)
	}
	if lp.PkgPath != "fixture/internal/app" {
		t.Fatalf("PkgPath: got %q", lp.PkgPath)
	}
	if again := l.Load("internal/app"); again != lp {
		t.Fatal("Load must memoize")
	}
}

// TestLoaderDegradesOnTypeError: a type error yields Loaded.Err, never a
// panic or a partial Info handed to analyzers.
func TestLoaderDegradesOnTypeError(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	mustWrite(t, root, "internal/bad/bad.go", `package bad

var x undefinedType
`)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	lp := l.Load("internal/bad")
	if lp.Err == nil {
		t.Fatal("want type error")
	}
	if !strings.Contains(lp.Err.Error(), "undefined") {
		t.Fatalf("unexpected error: %v", lp.Err)
	}
	// AnalyzeTypedFiles on a failed package must run tier-2 analyzers as
	// a silent skip, not report garbage.
	if diags := AnalyzeTypedFiles(lp, l.Module(), []*Analyzer{EpsFlow}); len(diags) != 0 {
		t.Fatalf("failed package must produce no tier-2 findings, got %v", diags)
	}
}

// TestLoaderNoModLine: a go.mod without a module line fails loader
// construction (Run degrades by reporting the error, never guessing).
func TestLoaderNoModLine(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "// empty\n")
	if _, err := NewLoader(root); err == nil {
		t.Fatal("want error for missing module line")
	}
}

// TestLoaderEmptyDir: a directory with no buildable Go files (the
// test-only package case) degrades with Err set.
func TestLoaderEmptyDir(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	mustWrite(t, root, "internal/only/only_test.go", "package only\n")
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if lp := l.Load("internal/only"); lp.Err == nil {
		t.Fatal("test-only package must degrade with Err")
	}
}
