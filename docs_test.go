package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameWhatExists fails when README.md or the verify skill names
// something the tree no longer has: a make target (as code: `make X`), a
// cmd/ directory, or a root-level JSON file. Root files are named in
// capitals (BENCHMARK.json); lower-case .json names in the docs are
// arguments and outputs. It also fails when either of the two, or
// DESIGN.md, names as code a Go or assembly file (`x.go`, `x_amd64.s`)
// that no file in the tree is called.
func TestDocsNameWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	code := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	makeRef := regexp.MustCompile("(?:^|[\\s`])make ([a-z][\\w-]*)")
	cmdRef := regexp.MustCompile(`\bcmd/([\w-]+)`)
	jsonRef := regexp.MustCompile(`(?:^|[^\w/.$-])([A-Z]\w*\.json)\b`)
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range code.FindAll(text, -1) {
			for _, m := range makeRef.FindAllSubmatch(span, -1) {
				if !targets[string(m[1])] {
					t.Errorf("%s names `make %s`: the Makefile has no such target", doc, m[1])
				}
			}
		}
		for _, m := range cmdRef.FindAllSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", string(m[1]))); err != nil || !fi.IsDir() {
				t.Errorf("%s names cmd/%s: there is no such directory", doc, m[1])
			}
		}
		for _, m := range jsonRef.FindAllSubmatch(text, -1) {
			if _, err := os.Stat(string(m[1])); err != nil {
				t.Errorf("%s names %s: there is no such file at the root", doc, m[1])
			}
		}
	}

	names := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		names[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A name, or a path ending in one; not a pattern such as *_test.go or a
	// suffix such as _test.go.
	fileRef := regexp.MustCompile(`(?:^|[^\w./*-])([A-Za-z0-9./][\w./-]*\.(?:go|s))\b`)
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range code.FindAll(text, -1) {
			for _, m := range fileRef.FindAllSubmatch(span, -1) {
				if !names[filepath.Base(string(m[1]))] {
					t.Errorf("%s names `%s`: no file in the tree is called that", doc, m[1])
				}
			}
		}
	}
}
