package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestDocsNameWhatExists fails when README.md, ROADMAP.md, DESIGN.md or
// the verify skill names something the tree does not have: a make target
// (as code: `make X`), a cmd/ directory, a root-level JSON file, a Go or
// assembly file (as code: `x.go`, `x_amd64.s`) that no file in the tree is
// called, or (as code) an exported `pkg.Ident` or `pkg.Type.Member` of a
// package under internal/ or cmd/ that the package does not declare. Root
// files are named in capitals (BENCHMARK.json); lower-case .json names in
// the docs are arguments and outputs. A plan names what does not exist yet,
// and a history what is gone, in prose, not as code.
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
	pkgs := map[string]map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if d.IsDir() {
				pkgs[d.Name()] = declared(t, filepath.Join(root, d.Name()))
			}
		}
	}
	files := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		files[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A name, or a path ending in one; not a pattern such as *_test.go or a
	// suffix such as _test.go.
	fileRef := regexp.MustCompile(`(?:^|[^\w./*-])([A-Za-z0-9./][\w./-]*\.(?:go|s))\b`)
	identRef := regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	makeRef := regexp.MustCompile("(?:^|[\\s`])make ([a-z][\\w-]*)")
	cmdRef := regexp.MustCompile(`\bcmd/([\w-]+)`)
	jsonRef := regexp.MustCompile(`(?:^|[^\w/.$-])([A-Z]\w*\.json)\b`)
	for _, doc := range []string{"README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md", "DESIGN.md"} {
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
			for _, m := range identRef.FindAllSubmatch(span, -1) {
				names, ok := pkgs[string(m[1])]
				if !ok {
					continue
				}
				name := string(m[2])
				if len(m[3]) > 0 {
					name += "." + string(m[3])
				}
				if !names[name] {
					t.Errorf("%s names `%s.%s`: the package declares no such name", doc, m[1], name)
				}
			}
			for _, m := range fileRef.FindAllSubmatch(span, -1) {
				if !files[filepath.Base(string(m[1]))] {
					t.Errorf("%s names `%s`: no file in the tree is called that", doc, m[1])
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

}

// TestChangesEntriesStayShort holds each CHANGES.md entry numbered 44 or
// later (a line `- PR N: ...`; the older ones predate the rule) to the
// 1 500 characters ROADMAP allows a prose item: an entry says what changed
// and what to check, and the detail lives in the code and DESIGN.md.
func TestChangesEntriesStayShort(t *testing.T) {
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- PR (\d+):`)
	for _, line := range strings.Split(string(text), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n >= 44 && utf8.RuneCountInString(line) > 1500 {
			t.Errorf("CHANGES.md: the PR %d entry is %d characters, over 1 500", n, utf8.RuneCountInString(line))
		}
	}
}

// DOC_CEILING is DESIGN.md's line count at the last change that lowered
// it, named like the Makefile's LOC_CEILING. Until DESIGN is rewritten as
// the system as it is (ROADMAP, "Prose that cannot go stale"), the count
// only falls: a change that shortens DESIGN lowers the ceiling to its own
// count, and one that must lengthen it raises the ceiling in the same diff.
const DOC_CEILING = 2137

// TestDesignUnderDocCeiling holds DESIGN.md at or below DOC_CEILING lines.
func TestDesignUnderDocCeiling(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(text), "\n"); n > DOC_CEILING {
		t.Errorf("DESIGN.md is %d lines, over DOC_CEILING (%d)", n, DOC_CEILING)
	}
}

// declared returns the names the package in dir declares at top level,
// and Type.Member for each method, struct field and interface method, in
// every file of the package, tests included (a test hook is named as one).
func declared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				names[name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var members *ast.FieldList
						switch typ := s.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members == nil {
							continue
						}
						for _, m := range members.List {
							for _, n := range m.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}
