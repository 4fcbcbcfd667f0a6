// Command reprovet runs the project's static-analysis suite
// (internal/lint) over the source tree and exits nonzero on findings.
//
// Usage:
//
//	reprovet [flags] [packages]
//
// Packages follow go-tool patterns ("./...", "./internal/ckpt");
// the default is "./..." from the enclosing module root.
//
// Flags:
//
//	-json           emit findings as a JSON array instead of text
//	-tier N         analysis depth: 1 = syntactic rules only,
//	                2 = also type-check and run the type-aware rules
//	                (default 2; packages that fail to type-check
//	                silently degrade to tier 1)
//	-tests          include _test.go files
//	-rules          comma-separated rule subset (default: all)
//	-list           print the rule set and exit
//	-audit-ignores  report //lint:ignore directives that suppress
//	                nothing (runs the full suite at tier 2)
//	-C dir          run as if invoked from dir
//
// Exit status: 0 when no error-severity finding survives suppression
// (for -audit-ignores: no stale directive), 1 otherwise, 2 on usage or
// parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can drive exit
// codes and output without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		tier    = fs.Int("tier", 2, "analysis depth: 1 syntactic, 2 adds the type-aware rules")
		tests   = fs.Bool("tests", false, "include _test.go files")
		rules   = fs.String("rules", "", "comma-separated subset of rules to run")
		list    = fs.Bool("list", false, "list available rules and exit")
		audit   = fs.Bool("audit-ignores", false, "report lint:ignore directives that suppress nothing")
		chdir   = fs.String("C", ".", "run as if invoked from this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s tier %d  %s\n", a.Name, displayTier(a), a.Doc)
		}
		return 0
	}
	if *tier != 1 && *tier != 2 {
		fmt.Fprintf(stderr, "reprovet: -tier must be 1 or 2, got %d\n", *tier)
		return 2
	}

	analyzers := lint.All()
	if *tier == 1 {
		analyzers = tierSubset(analyzers, 1)
	}
	if *rules != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "reprovet: unknown rule %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fmt.Fprintln(stderr, "reprovet: -rules selected no rules")
			return 2
		}
	}

	root, err := lint.FindModuleRoot(*chdir)
	if err != nil {
		fmt.Fprintf(stderr, "reprovet: %v\n", err)
		return 2
	}

	// Patterns are written relative to -C (like the go tool); the lint
	// runner resolves them against the module root.
	patterns, err := rebasePatterns(root, *chdir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "reprovet: %v\n", err)
		return 2
	}
	cfg := lint.Config{
		Root:         root,
		Analyzers:    analyzers,
		IncludeTests: *tests,
		Tier:         *tier,
	}

	if *audit {
		// Auditing against a rule subset or the shallow tier would call
		// directives for the excluded rules stale; always use the full
		// suite at full depth.
		cfg.Analyzers = lint.All()
		cfg.Tier = 2
		return runAudit(cfg, patterns, stdout, stderr)
	}

	diags, err := lint.Run(cfg, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "reprovet: %v\n", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "reprovet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
			// A finding reported away from its cause carries the trail;
			// print it indented under the finding.
			for _, step := range d.Path {
				fmt.Fprintf(stdout, "\t%s\n", step.String())
			}
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "reprovet: %d finding(s)\n", len(diags))
		}
	}

	if lint.HasErrors(diags) {
		return 1
	}
	return 0
}

// runAudit reports stale suppression directives. Exit 1 when any exist.
func runAudit(cfg lint.Config, patterns []string, stdout, stderr io.Writer) int {
	_, stale, err := lint.RunAudit(cfg, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "reprovet: %v\n", err)
		return 2
	}
	for _, s := range stale {
		reason := s.Reason
		if reason == "" {
			reason = "(no reason given)"
		}
		fmt.Fprintf(stdout, "%s:%d: stale //lint:ignore %s — %s\n", s.File, s.Line, strings.Join(s.Rules, ","), reason)
	}
	if len(stale) > 0 {
		fmt.Fprintf(stdout, "reprovet: %d stale ignore directive(s)\n", len(stale))
		return 1
	}
	return 0
}

// displayTier mirrors the analyzer's normalized tier for -list output.
func displayTier(a *lint.Analyzer) int {
	if a.Tier < 2 {
		return 1
	}
	return a.Tier
}

// tierSubset filters analyzers to those at or below the given tier.
func tierSubset(analyzers []*lint.Analyzer, tier int) []*lint.Analyzer {
	var out []*lint.Analyzer
	for _, a := range analyzers {
		if displayTier(a) <= tier {
			out = append(out, a)
		}
	}
	return out
}

// rebasePatterns rewrites patterns given relative to dir so they resolve
// correctly against the module root.
func rebasePatterns(root, dir string, patterns []string) ([]string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		return patterns, nil
	}
	out := make([]string, len(patterns))
	for i, p := range patterns {
		out[i] = filepath.ToSlash(filepath.Join(rel, p))
		// filepath.Join cleans "x/..." into "x/...", but a bare "..."
		// suffix must survive the rebase.
		if strings.HasSuffix(p, "...") && !strings.HasSuffix(out[i], "...") {
			out[i] += "/..."
		}
	}
	return out, nil
}
