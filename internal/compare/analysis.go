package compare

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/pfs"
)

// Analysis characterizes HOW two checkpoints differ, not just where: a
// per-field histogram of divergence magnitudes by decade. This is the
// tool a domain scientist uses to pick the error bound ε in the first
// place — the paper assumes ε "is typically known by domain experts"
// (§2.4); this report is how the expert gets to know it.
type Analysis struct {
	// Fields holds one histogram per field, in checkpoint order.
	Fields []FieldHistogram
}

// FieldHistogram is one field's divergence profile.
type FieldHistogram struct {
	// Field is the field name.
	Field string
	// Decades counts nonzero |a-b| by decade: key d covers
	// [10^d, 10^(d+1)).
	Decades map[int]int64
	// Zero counts bitwise-identical element pairs.
	Zero int64
	// Max is the largest absolute difference.
	Max float64
	// Total is the element count.
	Total int64
}

// CountAbove returns how many elements differ by more than eps.
func (h *FieldHistogram) CountAbove(eps float64) int64 {
	var n int64
	cut := int(math.Floor(math.Log10(eps)))
	for d, c := range h.Decades {
		if d > cut {
			n += c
		}
	}
	// The cut decade itself is partially above eps; this histogram is a
	// decade-granular summary, so attribute the boundary decade fully
	// when eps sits at its lower edge.
	if c, ok := h.Decades[cut]; ok && math.Pow(10, float64(cut)) >= eps {
		n += c
	}
	return n
}

// String renders the histogram compactly, densest decades first.
func (h *FieldHistogram) String() string {
	type row struct {
		d int
		c int64
	}
	rows := make([]row, 0, len(h.Decades))
	for d, c := range h.Decades {
		rows = append(rows, row{d, c})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].d > rows[b].d })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d elements, %d identical, max |diff| %.3g", h.Field, h.Total, h.Zero, h.Max)
	for _, r := range rows {
		fmt.Fprintf(&sb, "\n  1e%+03d..1e%+03d: %d", r.d, r.d+1, r.c)
	}
	return sb.String()
}

// Analyze reads both checkpoints fully and builds the divergence profile.
// It is an analysis pass, not a fast comparison: every byte is read.
// Cancellation is observed between fields.
func Analyze(ctx context.Context, store *pfs.Store, nameA, nameB string) (*Analysis, error) {
	ra, _, err := ckpt.OpenReader(store, nameA)
	if err != nil {
		return nil, err
	}
	defer ra.Close()
	rb, _, err := ckpt.OpenReader(store, nameB)
	if err != nil {
		return nil, err
	}
	defer rb.Close()
	if !ckpt.SameSchema(ra.Meta(), rb.Meta()) {
		return nil, fmt.Errorf("compare: %s and %s have different schemas", nameA, nameB)
	}
	out := &Analysis{Fields: make([]FieldHistogram, 0, ra.NumFields())}
	for fi := 0; fi < ra.NumFields(); fi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f := ra.Field(fi)
		da, _, err := ra.ReadField(fi)
		if err != nil {
			return nil, err
		}
		db, _, err := rb.ReadField(fi)
		if err != nil {
			return nil, err
		}
		h, err := histogramField(f, da, db)
		if err != nil {
			return nil, err
		}
		out.Fields = append(out.Fields, h)
	}
	return out, nil
}

func histogramField(f ckpt.FieldSpec, a, b []byte) (FieldHistogram, error) {
	h := FieldHistogram{Field: f.Name, Decades: make(map[int]int64)}
	esz := f.DType.Size()
	if len(a) != len(b) || len(a)%esz != 0 {
		return h, fmt.Errorf("compare: field %q buffers misshapen", f.Name)
	}
	n := len(a) / esz
	h.Total = int64(n)
	for i := 0; i < n; i++ {
		var va, vb float64
		if f.DType == errbound.Float32 {
			va = float64(math.Float32frombits(binary.LittleEndian.Uint32(a[i*4:])))
			vb = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		} else {
			va = math.Float64frombits(binary.LittleEndian.Uint64(a[i*8:]))
			vb = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		d := math.Abs(va - vb)
		switch {
		case d == 0 || (math.IsNaN(va) && math.IsNaN(vb)):
			h.Zero++
		case math.IsNaN(d) || math.IsInf(d, 0):
			h.Decades[999]++ // non-finite bucket
			h.Max = math.Inf(1)
		default:
			h.Decades[int(math.Floor(math.Log10(d)))]++
			if d > h.Max {
				h.Max = d
			}
		}
	}
	return h, nil
}

// SuggestEpsilon proposes an error bound from the profile: the smallest
// decade boundary that would classify at most maxFrac of the elements as
// divergent. It returns 0 when even the largest observed decade exceeds
// the budget.
func (h *FieldHistogram) SuggestEpsilon(maxFrac float64) float64 {
	if h.Total == 0 {
		return 0
	}
	decades := make([]int, 0, len(h.Decades))
	for d := range h.Decades {
		if d != 999 {
			decades = append(decades, d)
		}
	}
	if len(decades) == 0 {
		return math.SmallestNonzeroFloat64 // nothing differs: any bound works
	}
	sort.Ints(decades)
	budget := int64(maxFrac * float64(h.Total))
	var above int64
	// Walk decades from the top down, accumulating the divergent tail.
	for i := len(decades) - 1; i >= 0; i-- {
		if above+h.Decades[decades[i]] > budget {
			// eps at the upper edge of this decade keeps the tail within
			// budget.
			return math.Pow(10, float64(decades[i]+1))
		}
		above += h.Decades[decades[i]]
	}
	return math.Pow(10, float64(decades[0]))
}
