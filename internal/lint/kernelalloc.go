package lint

import (
	"go/ast"
	"go/token"
)

// KernelAlloc flags heap allocations inside Executor.For kernel closures.
// A For body is the per-iteration unit the device layer fans out across
// workers: tree levels run it once per node, the compare layer once per
// chunk. An allocation there (make, new, a slice or map literal, or an
// append that grows a captured slice) is multiplied by the loop's trip
// count and turns a memory-bandwidth-bound kernel into a GC-bound one —
// the buildFieldTree per-build []error was exactly this bug. Buffers
// belong outside the kernel, sized once, or in per-worker scratch.
//
// The check is syntactic: any call named For or ForCoarse (the heavy-item
// range dispatch) whose final argument is a kernel closure is treated as a
// kernel dispatch (Serial, Parallel, and Pool all share that shape through
// the Executor interface). The closure is either a function literal in
// place or — the range-dispatch shape — a local the enclosing function
// binds to one (verifyRange := func(r int) {...}). An append whose
// destination is
// declared inside the closure (a local or a parameter) is not flagged;
// growing a captured slice is — it is both an allocation and, under a
// parallel executor, a data race; per-range scratch indexed by the range
// number, sized outside the closure, is the fix. Genuinely cold For bodies
// can suppress with //lint:ignore kernelalloc <why>.
var KernelAlloc = &Analyzer{
	Name:     "kernelalloc",
	Doc:      "heap allocation (make/new/slice or map literal/append to captured slice) inside an Executor.For kernel closure",
	Severity: SeverityError,
	Run:      runKernelAlloc,
}

func runKernelAlloc(p *Pass) {
	for _, f := range p.Files {
		forEachFunc(f, func(node ast.Node, body *ast.BlockStmt, sc *funcScope) {
			bound := boundClosures(body)
			checked := map[*ast.FuncLit]bool{}
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if lit := forKernel(call, bound); lit != nil && !checked[lit] {
					checked[lit] = true
					checkKernelBody(p, lit)
				}
				// Keep walking: a nested For dispatch inside this kernel is
				// found by this same Inspect and checked once on its own.
				return true
			})
		})
	}
}

// boundClosures maps the locals a function body binds to function
// literals (name := func..., name = func...) to those literals.
func boundClosures(body *ast.BlockStmt) map[string]*ast.FuncLit {
	bound := map[string]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if lit, ok := as.Rhs[i].(*ast.FuncLit); ok {
				bound[id.Name] = lit
			}
		}
		return true
	})
	return bound
}

// forKernel returns the kernel closure of an executor dispatch: a call
// named For or ForCoarse whose last argument is a function literal or a
// local bound to one.
func forKernel(call *ast.CallExpr, bound map[string]*ast.FuncLit) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "For" && sel.Sel.Name != "ForCoarse") || len(call.Args) < 2 {
		return nil
	}
	switch arg := call.Args[len(call.Args)-1].(type) {
	case *ast.FuncLit:
		return arg
	case *ast.Ident:
		return bound[arg.Name]
	}
	return nil
}

// checkKernelBody reports allocations in one kernel closure. Nested For
// dispatches are skipped here — their closures get their own visit.
func checkKernelBody(p *Pass, lit *ast.FuncLit) {
	locals := closureLocals(lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if forKernel(n, nil) != nil {
				return false
			}
			fn, ok := n.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			switch fn.Name {
			case "make":
				p.Reportf(n.Pos(), "make allocates on every kernel iteration; hoist the buffer out of the For body or use per-worker scratch")
			case "new":
				p.Reportf(n.Pos(), "new allocates on every kernel iteration; hoist the value out of the For body")
			case "append":
				if len(n.Args) == 0 {
					return true
				}
				if id, ok := n.Args[0].(*ast.Ident); ok && !locals[id.Name] {
					p.Reportf(n.Pos(), "append grows captured %q inside a kernel closure (per-iteration allocation, and a data race under a parallel executor); preallocate outside the For body", id.Name)
				}
			}
		case *ast.CompositeLit:
			switch t := n.Type.(type) {
			case *ast.ArrayType:
				// [N]T{...} is stack-allocatable; only slice literals heap.
				if t.Len == nil {
					p.Reportf(n.Pos(), "slice literal allocates on every kernel iteration; hoist it out of the For body")
				}
			case *ast.MapType:
				p.Reportf(n.Pos(), "map literal allocates on every kernel iteration; hoist it out of the For body")
			}
		}
		return true
	})
}

// closureLocals collects the identifiers declared inside the closure:
// parameters, named results, := definitions, var declarations, and range
// variables. Everything else reached from the body is a capture.
func closureLocals(lit *ast.FuncLit) map[string]bool {
	locals := map[string]bool{}
	record := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				locals[name.Name] = true
			}
		}
	}
	record(lit.Type.Params)
	record(lit.Type.Results)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						locals[name.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					locals[id.Name] = true
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
		case *ast.FuncLit:
			record(n.Type.Params)
			record(n.Type.Results)
		}
		return true
	})
	return locals
}
