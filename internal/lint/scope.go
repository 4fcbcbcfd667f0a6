package lint

import (
	"go/ast"
	"go/token"
	"math"
	"strconv"
	"strings"
)

// funcScope is a lightweight, purely syntactic view of the identifiers
// declared inside one function body (plus its parameters, results and
// receiver). The analyzers are type-checker-free by design — stdlib-only,
// no cross-package resolution — so this classifies idents from their
// declaration syntax and one level of := inference. Unknown idents simply
// stay unclassified, which makes every analyzer conservative: it can miss
// a finding on an exotic declaration but never invents one.
type funcScope struct {
	floats     map[string]bool // float32 / float64 idents
	floatElems map[string]bool // slices/arrays of float idents
}

func newFuncScope() *funcScope {
	return &funcScope{
		floats:     map[string]bool{},
		floatElems: map[string]bool{},
	}
}

// isFloatType reports whether a type expression is syntactically float32
// or float64.
func isFloatType(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	return ok && (id.Name == "float32" || id.Name == "float64")
}

// isFloatSliceType reports whether t is []floatXX or [N]floatXX.
func isFloatSliceType(t ast.Expr) bool {
	at, ok := t.(*ast.ArrayType)
	return ok && isFloatType(at.Elt)
}

// classify records one ident with an explicit type expression.
func (s *funcScope) classify(name string, t ast.Expr) {
	if name == "" || name == "_" {
		return
	}
	switch {
	case isFloatType(t):
		s.floats[name] = true
	case isFloatSliceType(t):
		s.floatElems[name] = true
	}
}

// classifyFieldList records every named field (params, results,
// receivers).
func (s *funcScope) classifyFieldList(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, n := range f.Names {
			s.classify(n.Name, f.Type)
		}
	}
}

// scopeOf builds the scope for a function declaration or literal: fn is
// the *ast.FuncDecl or *ast.FuncLit whose body will be analyzed.
func scopeOf(fn ast.Node) *funcScope {
	s := newFuncScope()
	var body *ast.BlockStmt
	switch n := fn.(type) {
	case *ast.FuncDecl:
		s.classifyFieldList(n.Recv)
		s.classifyFieldList(n.Type.Params)
		s.classifyFieldList(n.Type.Results)
		body = n.Body
	case *ast.FuncLit:
		s.classifyFieldList(n.Type.Params)
		s.classifyFieldList(n.Type.Results)
		body = n.Body
	}
	if body == nil {
		return s
	}
	// Two passes over the body so a := chain like a := 1.0; b := a
	// resolves regardless of analyzer visit order.
	for i := 0; i < 2; i++ {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for j, name := range vs.Names {
						if vs.Type != nil {
							s.classify(name.Name, vs.Type)
						} else if j < len(vs.Values) {
							s.classifyFromValue(name.Name, vs.Values[j])
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
					return true
				}
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for j, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					s.classifyFromValue(id.Name, n.Rhs[j])
				}
			case *ast.RangeStmt:
				// for _, v := range xs with xs a float slice makes v a
				// float.
				if x, ok := n.X.(*ast.Ident); ok && s.floatElems[x.Name] {
					if v, ok := n.Value.(*ast.Ident); ok && n.Tok == token.DEFINE {
						s.floats[v.Name] = true
					}
				}
			case *ast.FuncLit:
				// Closures are analyzed as part of their enclosing
				// function, so fold their params into the same scope.
				s.classifyFieldList(n.Type.Params)
				s.classifyFieldList(n.Type.Results)
			}
			return true
		})
	}
	return s
}

// classifyFromValue infers an ident's class from the expression assigned
// to it.
func (s *funcScope) classifyFromValue(name string, v ast.Expr) {
	if name == "" || name == "_" {
		return
	}
	switch {
	case s.isFloatExpr(v):
		s.floats[name] = true
	case isMakeOf(v, isFloatSliceType) || isCompositeOf(v, isFloatSliceType):
		s.floatElems[name] = true
	}
}

// isMakeOf reports whether v is make(T, ...) with T matching pred.
func isMakeOf(v ast.Expr, pred func(ast.Expr) bool) bool {
	call, ok := v.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "make" {
		return false
	}
	return pred(call.Args[0])
}

// isCompositeOf reports whether v is a composite literal T{...} with T
// matching pred.
func isCompositeOf(v ast.Expr, pred func(ast.Expr) bool) bool {
	cl, ok := v.(*ast.CompositeLit)
	return ok && cl.Type != nil && pred(cl.Type)
}

// mathFloatFuncs are math-package functions that return a float. Calls to
// them make an expression float-typed for floatcmp. Predicates like
// math.IsNaN and bit views like math.Float64bits are deliberately absent.
var mathFloatFuncs = map[string]bool{
	"Abs": true, "Acos": true, "Asin": true, "Atan": true, "Atan2": true,
	"Cbrt": true, "Ceil": true, "Copysign": true, "Cos": true, "Cosh": true,
	"Erf": true, "Erfc": true, "Exp": true, "Exp2": true, "Floor": true,
	"Gamma": true, "Hypot": true, "Inf": true, "Ldexp": true, "Log": true,
	"Log10": true, "Log2": true, "Max": true, "Min": true, "Mod": true,
	"NaN": true, "Pow": true, "Remainder": true, "Round": true, "Sin": true,
	"Sinh": true, "Sqrt": true, "Tan": true, "Tanh": true, "Trunc": true,
	"Float32frombits": true, "Float64frombits": true,
}

// isFloatExpr reports whether e is syntactically float-valued within the
// scope: a float literal, a classified ident, a float conversion, a
// float-returning math call, arithmetic over any of those, or an index
// into a float slice.
func (s *funcScope) isFloatExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		// An untyped float constant with an integral value (1e9, 2.0)
		// can legally compare against integers, so only a literal with a
		// genuine fractional part is float evidence on its own.
		if e.Kind != token.FLOAT {
			return false
		}
		v, err := strconv.ParseFloat(e.Value, 64)
		//lint:ignore floatcmp exact integrality test on a parsed constant
		return err == nil && math.Trunc(v) != v
	case *ast.Ident:
		return s.floats[e.Name]
	case *ast.ParenExpr:
		return s.isFloatExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return s.isFloatExpr(e.X)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return s.isFloatExpr(e.X) || s.isFloatExpr(e.Y)
		}
	case *ast.IndexExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return s.floatElems[id.Name]
		}
	case *ast.CallExpr:
		switch fn := e.Fun.(type) {
		case *ast.Ident:
			return fn.Name == "float32" || fn.Name == "float64"
		case *ast.SelectorExpr:
			if x, ok := fn.X.(*ast.Ident); ok && x.Name == "math" {
				return mathFloatFuncs[fn.Sel.Name]
			}
		}
	}
	return false
}

// exprString renders a small expression (ident or dotted selector chain)
// to a comparable string; it returns "" for anything more complex. Used
// to match append targets against later sort calls.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}

// pkgIn reports whether pkg equals or sits below any of the given
// slash-separated prefixes.
func pkgIn(pkg string, prefixes ...string) bool {
	for _, p := range prefixes {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// forEachFunc invokes fn once per top-level function unit in the file: a
// function declaration, or a function literal bound at package level.
// Closures nested inside a unit belong to that unit's visit (their params
// are folded into its scope), so no node is analyzed twice.
func forEachFunc(f *ast.File, fn func(node ast.Node, body *ast.BlockStmt, sc *funcScope)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d, d.Body, scopeOf(d))
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
							fn(fl, fl.Body, scopeOf(fl))
							return false
						}
						return true
					})
				}
			}
		}
	}
}
