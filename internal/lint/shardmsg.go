package lint

import (
	"go/ast"
	"strings"
)

// Shardmsg keeps the shard wire messages codec-safe. Workers send the
// coordinator `*Msg` structs (VerdictMsg, DoneMsg) through the hand-rolled
// frame codec in internal/shard/wire.go, which serializes exactly what the
// struct declares — fixed-width scalars and slices of those. A map,
// pointer, channel, function, or interface field in such a struct cannot
// cross that wire: the codec would either skip it silently (a message
// that decodes to less than what was sent) or someone "fixes" the codec
// by encoding an address, which deserializes to garbage in any future
// multi-process deployment. Maps additionally iterate in randomized
// order, so even an in-process shortcut that walks one would break the
// deterministic-schedule guarantee the shard engine makes.
//
// The rule is syntactic: every struct type declared in internal/shard
// whose name ends in "Msg" is checked field by field, recursing through
// slice and array element types: the offending type constructors are
// flagged wherever they appear in the field's type expression.
var Shardmsg = &Analyzer{
	Name:     "shardmsg",
	Doc:      "mpi-encoded shard message structs must stay flat: no maps, pointers, chans, funcs, or interfaces",
	Severity: SeverityError,
	Run:      runShardmsg,
}

// shardmsgPkgs scopes the rule to the package that owns the wire codec.
var shardmsgPkgs = []string{
	"internal/shard",
}

func runShardmsg(p *Pass) {
	if !pkgIn(p.Pkg, shardmsgPkgs...) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Msg") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if bad, what := unwireable(field.Type); bad {
					p.Reportf(field.Pos(), "%s field in wire message %s: the shard codec only carries flat data", what, ts.Name.Name)
				}
			}
			return true
		})
	}
}

// unwireable reports whether the field type contains a type constructor
// the shard wire codec cannot carry, and names the offending kind.
func unwireable(t ast.Expr) (bool, string) {
	switch x := t.(type) {
	case *ast.MapType:
		return true, "map"
	case *ast.StarExpr:
		return true, "pointer"
	case *ast.ChanType:
		return true, "channel"
	case *ast.FuncType:
		return true, "function"
	case *ast.InterfaceType:
		return true, "interface"
	case *ast.ArrayType:
		return unwireable(x.Elt)
	case *ast.ParenExpr:
		return unwireable(x.X)
	}
	return false, ""
}
