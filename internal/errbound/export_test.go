package errbound

import (
	"fmt"
	"strings"
)

// What ab_test.go needs of the oracle and the benchmark inputs. It is an
// external test package because it imports internal/hacc, which imports
// this package.
var (
	ReferenceCompareSlices = referenceCompareSlices
	ReferenceAllClose      = referenceAllClose
	BenchPair              = benchPair
	BenchRegimes           = benchRegimes
	ForceLeafRung          = forceLeafRung
	LeafRungs              = leafRungs
)

const BenchEps = benchEps

// forceLeafRung makes HashChunks start its float32 ladder at rung — "wide",
// "pair" or "loop"; any other leaves it as this CPU has it — by clearing the
// flags above it, and reports whether this build and CPU have that rung;
// restore puts the flags back.
func forceLeafRung(rung string) (ok bool, restore func()) {
	wide, pair := wideF32, pairF32
	switch rung {
	case "wide":
		ok = wide
	case "pair":
		wideF32, ok = false, pair
	case "loop":
		wideF32, pairF32, ok = false, false, true
	default:
		ok = true
	}
	return ok, func() { wideF32, pairF32 = wide, pair }
}

// leafRungs names the rungs HashChunks takes now over n bytes of dtype in
// chunk-sized pieces, with the pieces each takes: "wide 16, pair 2, loop 1".
func leafRungs(dtype DType, n, chunk int) string {
	whole, wide, pair := n/chunk, 0, 0
	if dtype == Float32 && chunk%4 == 0 {
		if wideF32 {
			wide = whole / 16 * 16
		}
		if pairF32 {
			pair = (whole - wide) / 2 * 2
		}
	}
	var out []string
	for _, r := range []struct {
		name   string
		pieces int
	}{{"wide", wide}, {"pair", pair}, {"loop", (n+chunk-1)/chunk - wide - pair}} {
		if r.pieces > 0 {
			out = append(out, fmt.Sprintf("%s %d", r.name, r.pieces))
		}
	}
	return strings.Join(out, ", ")
}
