// Package lint is a project-specific static-analysis framework for the
// repro codebase. It holds the rules whose bug nothing else in `make
// check` catches — seeded in the real tree, the bug left the tests, go vet,
// the race detector, the fuzz targets and bench-det green:
//
//   - ε-safety of float comparisons (raw ==/!=/< on floats bypasses the
//     error-bound machinery in internal/errbound; a hand-rolled compare
//     that calls a NaN pair close, or rounds the difference in float32,
//     passes every oracle table, because they hold errbound's kernels and
//     the doors that call them),
//   - no silently dropped I/O errors on checkpoint and PFS write paths
//     (a dropped Close error means a checkpoint that hashes clean but
//     never became durable; no test fails a Close).
//
// Determinism, goroutine joins, cancellation, retry scheduling, kernel
// allocation, ring lifetime and the journal chain are held by executable
// checks instead (DESIGN.md §8 names them).
//
// The framework is stdlib-only (go/ast, go/parser, go/token, go/types).
// Tier-1 analyzers are purely syntactic; tier-2 analyzers see go/types
// facts. Findings can be suppressed with a
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// comment on the flagged line or the line directly above it. The
// cmd/reprovet CLI drives the framework; `make lint` runs it over the
// whole tree.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity classifies how a diagnostic affects the exit status of the
// reprovet CLI. Both levels are reported; only the distinction between
// "informational" and "gate-failing" is encoded here so future rules can
// soft-launch as warnings.
type Severity int

// Severity levels, ordered.
const (
	// SeverityWarning marks findings that are reported but do not fail
	// the lint gate on their own.
	SeverityWarning Severity = iota
	// SeverityError marks findings that fail the lint gate.
	SeverityError
)

// String returns the lowercase name of the severity.
func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one finding: a position, the rule that produced it, its
// severity, and a human-readable message. A tier-2 finding reported away
// from its cause (a generic helper flagged at its instantiation) also
// attaches the path that justifies it.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Rule     string         `json:"rule"`
	Severity string         `json:"severity"`
	Message  string         `json:"message"`
	// Path, when present, is the trail from the cause (first step) to the
	// site the diagnostic is anchored at.
	Path []PathStep `json:"path,omitempty"`
}

// PathStep is one hop of a path: a position and what happened there
// ("comparison on type parameter inside eq()", "instantiated with
// float64").
type PathStep struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Note string `json:"note"`
}

// String renders the step in file:line:col form.
func (s PathStep) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", s.File, s.Line, s.Col, s.Note)
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]", d.File, d.Line, d.Col, d.Severity, d.Message, d.Rule)
}

// Analyzer is one named rule. Run inspects the files of a single package
// and reports findings through the Pass.
type Analyzer struct {
	// Name is the rule ID used in reports and //lint:ignore comments.
	Name string
	// Doc is a one-line description shown by `reprovet -list`.
	Doc string
	// Severity is attached to every diagnostic the analyzer reports.
	Severity Severity
	// Tier classifies the rule: tier 1 (the zero value) is purely
	// syntactic and always available; tier 2 requires go/types facts and
	// silently skips any package whose type information could not be
	// loaded (never a false positive from partial types).
	Tier int
	// Run performs the analysis on one package.
	Run func(*Pass)
}

// tier normalizes the zero value to tier 1.
func (a *Analyzer) tier() int {
	if a.Tier < 2 {
		return 1
	}
	return a.Tier
}

// Pass carries one package's parsed files through one analyzer and
// collects its diagnostics.
type Pass struct {
	// Fset maps token.Pos values to file positions.
	Fset *token.FileSet
	// Files are the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the package directory relative to the module root with
	// forward slashes, e.g. "internal/ckpt". The module root itself is
	// ".".
	Pkg string

	// TypesInfo and TypesPkg carry the go/types facts for tier-2
	// analyzers; both are nil on tier-1 passes and on packages whose
	// type-check failed. Module is the module path ("" when untyped),
	// letting rules match fully-qualified names without hardcoding the
	// module name.
	TypesInfo *types.Info
	TypesPkg  *types.Package
	Module    string

	analyzer *Analyzer
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos under the pass's current analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportPath(pos, nil, format, args...)
}

// ReportPath records a diagnostic carrying a path. The path's first step
// is the cause; suppression directives on that line silence the finding
// just like directives on the reported line, so a reviewed generic helper
// does not need one annotation per instantiation.
func (p *Pass) ReportPath(pos token.Pos, path []PathStep, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Rule:     p.analyzer.Name,
		Severity: p.analyzer.Severity.String(),
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// Step converts a token position into a PathStep.
func (p *Pass) Step(pos token.Pos, format string, args ...any) PathStep {
	position := p.Fset.Position(pos)
	return PathStep{
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Note: fmt.Sprintf(format, args...),
	}
}

// AnalyzeFiles runs the given analyzers over one package's files and
// returns the surviving diagnostics: suppression comments are honored,
// and results are sorted by file, line, column, then rule. Tier-2
// analyzers in the list are skipped (no type information here); use
// AnalyzeTypedFiles for them.
func AnalyzeFiles(fset *token.FileSet, files []*ast.File, pkg string, analyzers []*Analyzer) []Diagnostic {
	return analyzeFiles(fset, files, pkg, analyzers, nil, nil)
}

// AnalyzeTypedFiles runs analyzers over one type-checked package. Both
// tiers run: tier-1 rules see the same files, tier-2 rules additionally
// see the go/types facts. lp.Err != nil reduces the pass to tier 1.
func AnalyzeTypedFiles(lp *Loaded, module string, analyzers []*Analyzer) []Diagnostic {
	var typed *typedContext
	if lp.Err == nil && lp.Info != nil {
		typed = &typedContext{info: lp.Info, pkg: lp.Pkg, module: module}
	}
	return analyzeFiles(lp.Fset, lp.Files, lp.Dir, analyzers, typed, nil)
}

// typedContext bundles the optional go/types facts for one package.
type typedContext struct {
	info   *types.Info
	pkg    *types.Package
	module string
}

// analyzeFiles is the shared core of AnalyzeFiles/AnalyzeTypedFiles.
// When sup is nil a fresh suppression index is collected from the files;
// passing a non-nil index lets callers (the stale-ignore audit) observe
// which directives actually suppressed something.
func analyzeFiles(fset *token.FileSet, files []*ast.File, pkg string, analyzers []*Analyzer, typed *typedContext, sup *suppressions) []Diagnostic {
	if sup == nil {
		sup = collectSuppressions(fset, files)
	}
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, analyzer: a}
		if a.tier() >= 2 {
			if typed == nil {
				continue // degrade to silent skip without type facts
			}
			pass.TypesInfo = typed.info
			pass.TypesPkg = typed.pkg
			pass.Module = typed.module
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if sup.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// HasErrors reports whether any diagnostic carries error severity — the
// condition under which the lint gate fails.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SeverityError.String() {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable order. Callers that need
// a subset (reprovet -rules) filter by name.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		ErrClose,
		EpsFlow,
	}
}

// ByName returns the analyzer with the given rule ID, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
