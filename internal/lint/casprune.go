package lint

import (
	"go/ast"
	"strings"
)

// Casprune flags stage-2 skip decisions made on truncated digests. The
// CAS pruning soundness argument (DESIGN §13) rests on full-digest
// keying: inside one content-addressed store a 128-bit leaf digest names
// exactly one stored byte string, so a chunk pair may be pruned from
// stage-2 verification exactly when its FULL digests match. Comparing a
// digest prefix — dig[:8] == other[:8], bytes.Equal(d[:4], e[:4]),
// bytes.HasPrefix(hash, probe) — silently turns "provably identical"
// into "probably identical", and a collision there is a false negative
// the paper's guarantee forbids.
//
// Two shapes are flagged in the CAS-bearing packages:
//
//  1. An ==/!= comparison or a bytes.Equal call where an operand slices
//     a digest-named value with an explicit upper bound (dig[:n],
//     leafHash[a:b]) — a prefix, not the digest.
//  2. A bytes.HasPrefix or strings.HasPrefix call over any digest-named
//     value: prefix matching on a digest is truncation by definition.
//
// Digest-named means the identifier (or selector field) contains "dig",
// "digest", "leaf", or "hash". Full-width copies (dig[:]) are fine.
var Casprune = &Analyzer{
	Name:     "casprune",
	Doc:      "CAS prune decisions must compare full leaf digests, never truncated prefixes",
	Severity: SeverityError,
	Run:      runCasprune,
}

// casprunePkgs scopes the rule to the packages that hold or consume CAS
// digests; elsewhere prefix-matching identifiers named "hash" are
// legitimate (e.g. git revision handling in tooling).
var casprunePkgs = []string{
	"internal/cas",
	"internal/compare",
	"internal/merkle",
	"internal/stream",
}

func runCasprune(p *Pass) {
	if !pkgIn(p.Pkg, casprunePkgs...) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op.String() != "==" && e.Op.String() != "!=" {
					return true
				}
				if truncatedDigest(e.X) || truncatedDigest(e.Y) {
					p.Reportf(e.Pos(), "digest prefix compared with %s: prune decisions need the full digest", e.Op)
				}
			case *ast.CallExpr:
				fn, pkg := selectorName(e.Fun)
				switch {
				case pkg == "bytes" && fn == "Equal":
					for _, arg := range e.Args {
						if truncatedDigest(arg) {
							p.Reportf(e.Pos(), "digest prefix compared with bytes.Equal: prune decisions need the full digest")
							break
						}
					}
				case (pkg == "bytes" || pkg == "strings") && fn == "HasPrefix":
					for _, arg := range e.Args {
						if digestNamed(arg) {
							p.Reportf(e.Pos(), "prefix match on a digest: prune decisions need the full digest")
							break
						}
					}
				}
			}
			return true
		})
	}
}

// truncatedDigest reports whether e slices a digest-named value with an
// explicit upper bound (a prefix or sub-range, not a full-width copy).
func truncatedDigest(e ast.Expr) bool {
	sl, ok := e.(*ast.SliceExpr)
	if !ok || sl.High == nil {
		return false
	}
	return digestNamed(sl.X)
}

// digestNamed reports whether the expression's base identifier or
// selector field is named after a digest.
func digestNamed(e ast.Expr) bool {
	var name string
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.SliceExpr:
		return digestNamed(x.X)
	case *ast.IndexExpr:
		return digestNamed(x.X)
	case *ast.CallExpr:
		// hash.Sum(nil), d.Bytes() — named by the method's receiver.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return digestNamed(sel.X)
		}
		return false
	default:
		return false
	}
	lower := strings.ToLower(name)
	for _, marker := range []string{"digest", "dig", "leaf", "hash"} {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
}

// selectorName splits a pkg.Func call expression into its parts.
func selectorName(fun ast.Expr) (name, pkg string) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		return sel.Sel.Name, id.Name
	}
	return sel.Sel.Name, ""
}
