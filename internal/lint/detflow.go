package lint

import (
	"go/ast"
	"go/types"
)

// DetFlow is the tier-2 determinism-taint rule. Where tier-1 maphash
// flags a map range whose body visibly writes to a hasher, detflow
// follows the value: a map-ordered key appended to a slice, returned
// from a helper, and only then fed to a chained digest two calls later
// is the same bug, and the syntactic rule cannot see it. The engine in
// taint.go propagates nondeterminism facts (map iteration order,
// wall-clock reads, unseeded math/rand, goroutine completion order,
// directory listings) through assignments, channels, returns and
// intra-package call edges; detflow supplies the source and sink tables
// and reports each surviving source→sink chain with its full path.
//
// Sinks are the places where a value becomes part of the reproducibility
// contract: chained Murmur3F digest inputs, ε-quantized hash inputs,
// merkle leaf sets, run-catalog records, JSON-encoded artifacts, and
// writes to any hash.Hash implementation. Sorting launders the
// order-sensitive taints (map order, goroutine order, directory order)
// but not the value taints (clock, rand): a sorted slice of timestamps
// is still nondeterministic.
var DetFlow = &Analyzer{
	Name:     "detflow",
	Doc:      "nondeterministic value (map order, wall clock, rand, goroutine order, dir listing) flows into a digest or recorded artifact",
	Severity: SeverityError,
	Tier:     2,
	Run:      runDetFlow,
}

// detFlowExempt lists packages allowed to feed their own primitives: the
// hashing and ε-bound machinery is where digests are implemented, not
// consumed.
var detFlowExempt = []string{"internal/murmur3", "internal/errbound"}

func runDetFlow(p *Pass) {
	if pkgIn(p.Pkg, detFlowExempt...) {
		return
	}
	runTaint(p, &taintSpec{
		mapRange:      true,
		goroutineRecv: true,
		sortSanitizes: true,
		callSources:   detFlowSources,
		sinks:         detFlowSinks,
	})
}

// detFlowSeededRand lists math/rand constructors that take an explicit
// seed (or wrap an explicitly seeded source): calling them is the fix,
// not the bug.
var detFlowSeededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "Seed": true,
}

// detFlowSources maps calls to the taints they introduce.
func detFlowSources(e *taintEngine, call *ast.CallExpr, callee *types.Func) []fact {
	if callee == nil {
		return nil
	}
	src := func(kind taintKind, note string) []fact {
		return []fact{{kind: kind, path: []flowStep{{pos: call.Pos(), note: note}}}}
	}
	switch funcFullName(callee, e.pass.Module) {
	case "time.Now":
		return src(taintWallClock, "time.Now() reads the wall clock")
	case "time.Since", "time.Until":
		return src(taintWallClock, "time."+callee.Name()+"() reads the wall clock")
	case "os.ReadDir", "(*os.File).ReadDir", "(*os.File).Readdir", "(*os.File).Readdirnames":
		return src(taintReadDir, "directory listing varies with the host filesystem")
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "math/rand" {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() == nil && !detFlowSeededRand[callee.Name()] {
			return src(taintRand, "math/rand."+callee.Name()+"() draws from the auto-seeded global source")
		}
	}
	return nil
}

// detFlowSinkTable maps module-stripped qualified names to the sink
// arguments they expose. Argument indices exclude the receiver.
var detFlowSinkTable = map[string][]sinkArg{
	// Chained Murmur3F digests: order-sensitive by construction.
	"(*internal/murmur3.Chain).Block":     {{arg: 0, desc: "chained digest block"}, {arg: 1, desc: "chained digest block"}},
	"(*internal/murmur3.Chain).BlockTail": {{arg: 0, desc: "chained digest block"}},
	"internal/murmur3.Mix":                {{arg: 2, desc: "chained digest block"}, {arg: 3, desc: "chained digest block"}},
	"internal/murmur3.SumDigest":          {{arg: 0, desc: "digest input"}},
	"internal/murmur3.Sum128":             {{arg: 0, desc: "digest input"}},
	"internal/murmur3.Sum128Seeded":       {{arg: 0, desc: "digest input"}},
	// ε-quantized hashing.
	"(*internal/errbound.Hasher).HashChunk":           {{arg: 0, desc: "ε-quantized digest input"}},
	"(*internal/errbound.Hasher).HashChunkScratch":    {{arg: 0, desc: "ε-quantized digest input"}},
	"(*internal/errbound.TruncationHasher).HashChunk": {{arg: 0, desc: "ε-quantized digest input"}},
	// Merkle leaf sets: leaf order is the tree shape.
	"internal/merkle.New": {{arg: 2, desc: "merkle leaf set"}},
	// Run-catalog records.
	"internal/catalog.Save":               {{arg: 1, desc: "run-catalog record"}},
	"(*internal/catalog.Manifest).SetApp": {{arg: 1, desc: "run-catalog record"}},
	// Encoded artifacts: anything JSON-encoded is, in this tree, a
	// persisted or compared record.
	"encoding/json.Marshal":           {{arg: 0, desc: "encoded record"}},
	"encoding/json.MarshalIndent":     {{arg: 0, desc: "encoded record"}},
	"(*encoding/json.Encoder).Encode": {{arg: 0, desc: "encoded record"}},
}

// detFlowSinks maps calls to the sink arguments they expose: the static
// table first, then any Write on a hash.Hash implementation — concrete
// receivers via the callee's signature, interface receivers (hash.Hash,
// hash.Hash64, ...) via the selection, since dynamic dispatch has no
// static callee.
func detFlowSinks(e *taintEngine, call *ast.CallExpr, callee *types.Func) []sinkArg {
	if callee == nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Write" {
			if s, ok := e.info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
				if iface := stdInterface("hash", "Hash"); iface != nil && types.Implements(s.Recv(), iface) {
					return []sinkArg{{arg: 0, desc: "hash state"}}
				}
			}
		}
		return nil
	}
	if sinks, ok := detFlowSinkTable[funcFullName(callee, e.pass.Module)]; ok {
		return sinks
	}
	if callee.Name() == "Write" {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if iface := stdInterface("hash", "Hash"); iface != nil {
				if types.Implements(sig.Recv().Type(), iface) {
					return []sinkArg{{arg: 0, desc: "hash state"}}
				}
			}
		}
	}
	return nil
}
