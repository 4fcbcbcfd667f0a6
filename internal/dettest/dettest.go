// Package dettest holds the inputs of the stage-2 parity table — the
// shapes, the adversarial float32 runs and the element-wise oracle —
// shared by the tests of every package with a stage-2 path
// (internal/compare: pair, direct, group, CAS-diff; internal/shard: shard
// pair and shard group). It depends on neither, so both can import it.
package dettest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// Eps is the table's error bound.
const Eps = 1e-5

// Shape is one row of the table: three runs of three float32 fields.
type Shape struct {
	Name  string
	Elems int // float32 elements per field
	// FieldElems, where non-zero, overrides Elems for that field, so one
	// checkpoint can hold trees of different depths.
	FieldElems [3]int
	Chunk      int
	SliceBytes int
	Fields     []string // Options.Fields; nil compares everything
	Degrade    bool     // run under Options.Degrade with in-flight corruption
	// Stride spaces the ε-straddling elements: 61 puts some in every
	// chunk, thousands leave most chunks to the perturbation alone, so
	// candidates come in runs with holes between them; past Elems only
	// the first element of each field straddles, and 0 plants nothing.
	Stride int
	// Quiet leaves out the perturbation: runs 1–2 are the baseline plus
	// what Stride plants, so Quiet with Stride 0 is three identical runs.
	Quiet bool
	// ULPJitter makes the runs two executions of one nondeterministic
	// code instead of one state perturbed here and there: magnitudes from
	// 1e-3 to 1e3, and every element of runs 1–2 a few float32 ULPs from
	// the baseline, so hardly a word is bit-equal and the differences sit
	// on both sides of Eps.
	ULPJitter bool
	// Subnormal is ULPJitter a float32 subnormal at a time: every value of
	// every run is a subnormal, runs 1–2 are up to 720 of its ULPs from the
	// baseline, and Eps should be a subnormal too.
	Subnormal bool
	// Eps, where positive, is the shape's error bound in place of the
	// package's (see Epsilon).
	Eps float64
}

// Epsilon returns the error bound the shape's runs are planted and compared
// at.
func (sh Shape) Epsilon() float64 {
	if sh.Eps > 0 {
		return sh.Eps
	}
	return Eps
}

// Shapes returns the table's rows.
func Shapes() []Shape {
	return []Shape{
		{Name: "single-chunk", Elems: 1000, Chunk: 64 << 10, Stride: 61},
		{Name: "ragged-final-chunk", Elems: 10_037, Chunk: 4 << 10, Stride: 61},
		{Name: "few-pairs-per-slice", Elems: 64 << 10, Chunk: 4 << 10, SliceBytes: 64 << 10, Stride: 5003},
		{Name: "many-slices", Elems: 256 << 10, Chunk: 16 << 10, SliceBytes: 128 << 10, Stride: 61},
		{Name: "fields-filter", Elems: 32 << 10, Chunk: 4 << 10, Fields: []string{"vx"}, Stride: 2503},
		{Name: "degrade-bit-flip", Elems: 48 << 10, Chunk: 4 << 10, SliceBytes: 96 << 10, Degrade: true, Stride: 3001},
		{Name: "ulp-jitter", Elems: 40_003, Chunk: 4 << 10, SliceBytes: 64 << 10, Stride: 4099, ULPJitter: true},
		// One field of ten chunks beside a field that is one short chunk
		// and a field that is exactly one chunk: a tree of depth 0 in a
		// plan whose other trees have levels to prune.
		{Name: "field-of-one-chunk", Elems: 10_037, FieldElems: [3]int{0, 1000, 1024}, Chunk: 4 << 10, Stride: 997},
		// Leaf counts that are not powers of two around the tables' pinned
		// StartLevel 1: five leaves (the second level-1 node covers one
		// real leaf and three of padding), three, and two — where level 1
		// is the leaf level itself.
		{Name: "leaves-beside-start-level", Elems: 4*1024 + 37, FieldElems: [3]int{0, 2*1024 + 1, 2 * 1024}, Chunk: 4 << 10, Stride: 997},
	}
}

// CopyShapes are the rows a stage-2 reader that prices a window's merged
// runs and lands its extents range by range can get wrong. They run
// through every door of the parity table beside Shapes, and stay out of
// Shapes itself: the tables pinned to numbers a parent commit recorded
// iterate that one.
func CopyShapes() []Shape {
	return []Shape{
		// Candidates every other chunk: every priced run bridges holes, whose
		// bytes no verify range copies.
		{Name: "gap-bridged", Elems: 64 << 10, Chunk: 4 << 10, Quiet: true, Stride: 2048},
		// Every chunk a candidate, windows of six chunks and a bit: each
		// window closes inside a merged run the next one continues.
		{Name: "window-splits-run", Elems: 48 << 10, Chunk: 4 << 10, SliceBytes: 6<<12 + 1000, Stride: 61},
		// Values and ε both subnormal: differences of a few hundred ULPs
		// either side of a bound of about 714 of them.
		{Name: "subnormal", Elems: 40_003, Chunk: 4 << 10, SliceBytes: 64 << 10, Stride: 4099, Subnormal: true, Eps: 1e-42},
	}
}

// Sequence returns the stale-scratch sequence: three shapes of one schema
// to be compared back to back, in this order, on one plane — dense (every
// chunk a candidate, long index lists), clean (three identical runs: no
// job at all), one chunk (a single straddling element per field). A
// recycled buffer or kernel scratch that keeps anything of the comparison
// before — a verdict slot beyond the job list, the tail of an index list —
// shows as a count that differs from the oracle's.
func Sequence() []Shape {
	const elems, chunk = 24 << 10, 4 << 10
	return []Shape{
		{Name: "sequence-dense", Elems: elems, Chunk: chunk, Stride: 61},
		{Name: "sequence-clean", Elems: elems, Chunk: chunk, Quiet: true},
		{Name: "sequence-one-chunk", Elems: elems, Chunk: chunk, Quiet: true, Stride: elems + 1},
	}
}

// Clean reports whether the shape's three runs are identical, so that no
// comparison of them reaches stage 2.
func (sh Shape) Clean() bool { return sh.Quiet && sh.Stride == 0 }

// Exec names one executor of the table's columns.
type Exec struct {
	Name string
	// Make returns the executor and its release.
	Make func() (device.Executor, func())
}

// Execs returns the table's columns: serial first (the reference), then
// pools of 1, 2, 4 and 8 workers.
func Execs() []Exec {
	execs := []Exec{{"serial", func() (device.Executor, func()) { return device.Serial{}, func() {} }}}
	for _, w := range []int{1, 2, 4, 8} {
		execs = append(execs, Exec{fmt.Sprintf("pool-%d", w), func() (device.Executor, func()) {
			p := device.NewPool(w)
			return p, p.Close
		}})
	}
	return execs
}

// Runs generates a shape's three runs (fields x, vx, phi): a baseline and
// two runs perturbed from it, every one planted with ε-straddling and IEEE
// special values. data[run][field] is the raw little-endian float32 bytes.
func Runs(sh Shape) (fields []ckpt.FieldSpec, data [][][]byte) {
	base := make([][]byte, 3)
	for fi, name := range []string{"x", "vx", "phi"} {
		elems := sh.Elems
		if sh.FieldElems[fi] > 0 {
			elems = sh.FieldElems[fi]
		}
		fields = append(fields, ckpt.FieldSpec{Name: name, DType: errbound.Float32, Count: int64(elems)})
		switch {
		case sh.Subnormal:
			base[fi] = subnormalF32(elems, int64(100+fi))
		case sh.ULPJitter:
			base[fi] = logUniformF32(elems, int64(100+fi))
		default:
			base[fi] = synth.FieldF32(elems, int64(100+fi))
		}
	}
	data = append(data, base)
	for ri := 1; ri <= 2; ri++ {
		run := make([][]byte, len(base))
		for fi := range base {
			switch {
			case sh.Quiet:
				run[fi] = slices.Clone(base[fi])
			case sh.Subnormal:
				run[fi] = jitterBits(base[fi], int64(10*ri+fi), 720)
			case sh.ULPJitter:
				run[fi] = jitterBits(base[fi], int64(10*ri+fi), 3)
			default:
				run[fi] = synth.PerturbF32(base[fi], synth.DefaultPerturb(int64(10*ri+fi)))
			}
			if sh.Stride > 0 {
				Straddle(base[fi], run[fi], sh.Epsilon(), 7*ri+fi, sh.Stride)
			}
		}
		data = append(data, run)
	}
	// Straddle planted specials in the baseline too; later runs were
	// perturbed from earlier baselines, which the oracle does not care
	// about — it compares what is on disk.
	return fields, data
}

// logUniformF32 generates n float32 elements of either sign whose
// magnitudes are log-uniform over 1e-3 … 1e3: a float32 ULP runs from 1e-10
// to 6e-5 across them, past Eps on the way.
func logUniformF32(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		v := math.Pow(10, 6*rng.Float64()-3)
		if rng.Intn(2) == 0 {
			v = -v
		}
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
	}
	return out
}

// subnormalF32 generates n float32 subnormals of either sign, their
// magnitudes uniform over the subnormal range but for 1024 ULPs at either
// end, so a jitter of up to 1023 ULPs keeps every value a subnormal of its
// sign.
func subnormalF32(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		bits := uint32(1024 + rng.Intn(1<<23-2048))
		if rng.Intn(2) == 0 {
			bits |= 1 << 31
		}
		out = binary.LittleEndian.AppendUint32(out, bits)
	}
	return out
}

// jitterBits returns a copy of a float32 field with every element moved 1
// to most ULPs, toward zero or away from it. No element is near enough to
// zero, or to the top of its binade's range of ULPs, to cross it.
func jitterBits(field []byte, seed int64, most int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, len(field))
	for i := 0; i+4 <= len(field); i += 4 {
		bits := binary.LittleEndian.Uint32(field[i:])
		if k := uint32(1 + rng.Intn(most)); rng.Intn(2) == 0 {
			bits += k
		} else {
			bits -= k
		}
		out = binary.LittleEndian.AppendUint32(out, bits)
	}
	return out
}

// Straddle rewrites elements of b (every stride-th, from first) so that
// a[i] and b[i] sit one float32 ULP either side of exactly eps apart, and
// plants the IEEE special cases in both runs.
func Straddle(a, b []byte, eps float64, first, stride int) {
	n := len(a) / 4
	get := func(p []byte, i int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])) }
	put := func(p []byte, i int, v float32) { binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v)) }
	for k, i := 0, first; i < n; k, i = k+1, i+stride {
		x := get(a, i)
		y := float32(float64(x) + eps)
		switch k % 4 {
		case 1:
			y = math.Nextafter32(y, float32(math.Inf(1))) // one ULP beyond
		case 2:
			y = math.Nextafter32(y, float32(math.Inf(-1))) // one ULP within
		case 3:
			y = float32(float64(x) - eps)
		}
		put(b, i, y)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Float32frombits(1 << 31)
	specials := [][2]float32{
		{nan, nan}, {nan, 1}, {1, nan}, {inf, inf}, {inf, -inf}, {-inf, 1e30},
		{0, negZero}, {negZero, float32(eps / 2)}, {inf, nan},
	}
	for k, sp := range specials {
		if i := first + 1 + k*stride; i < n {
			put(a, i, sp[0])
			put(b, i, sp[1])
		}
	}
	// Straddling zero as well: a ≈ +ε/2 against b ≈ −ε/2 and its two
	// neighbours, where the float32 difference of two floats of one exponent
	// is a sum that need not fit 24 bits. They go right after specials that
	// mark their chunk whatever else is in it (a NaN or an Inf against a
	// number), so they change no shape's candidate set.
	half := float32(eps / 2)
	for _, z := range []struct {
		after int // the special it follows
		b     float32
	}{{1, -half}, {2, math.Nextafter32(-half, -1)}, {4, math.Nextafter32(-half, 0)}} {
		if i := first + 2 + z.after*stride; i < n {
			put(a, i, half)
			put(b, i, z.b)
		}
	}
}

// OracleDiffs is the element-wise oracle: the indices at which two raw
// float32 fields differ by more than eps, written without reference to
// errbound. Two NaNs agree, infinities agree only with themselves, and
// -0 equals +0.
func OracleDiffs(a, b []byte, eps float64) []int64 {
	var out []int64
	for i := 0; i+4 <= len(a); i += 4 {
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(a[i:])))
		y := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		var same bool
		switch {
		case math.IsNaN(x) || math.IsNaN(y):
			same = math.IsNaN(x) && math.IsNaN(y)
		case math.IsInf(x, 0) || math.IsInf(y, 0):
			same = (math.IsInf(x, 1) && math.IsInf(y, 1)) || (math.IsInf(x, -1) && math.IsInf(y, -1))
		default:
			// |x-y| <= eps, exactly: a difference of unequal floats never
			// rounds to zero.
			same = math.Abs(x-y)-eps <= 0
		}
		if !same {
			out = append(out, int64(i/4))
		}
	}
	return out
}

// Want returns the oracle's divergent indices between runs a and b of a
// shape, by field name, over the fields the shape compares.
func Want(sh Shape, fields []ckpt.FieldSpec, data [][][]byte, a, b int) map[string][]int64 {
	m := make(map[string][]int64)
	for fi, f := range fields {
		if len(sh.Fields) > 0 && !slices.Contains(sh.Fields, f.Name) {
			continue
		}
		if idx := OracleDiffs(data[a][fi], data[b][fi], sh.Epsilon()); len(idx) > 0 {
			m[f.Name] = idx
		}
	}
	return m
}

// AllocBudget is what a warm comparison may allocate besides its answer:
// its plan, its candidate lists, its result and timing tables — not its
// metadata, not its kernel scratch, not its index lists twice.
const AllocBudget = 96 << 10

// PinWarmAllocs holds one door to "a comparison allocates its answer and
// nothing else". run is one comparison, returning the bytes of the index
// lists it reported. After eight warm-up runs (page cache, mappings, the
// request batches' and kernel scratch's free lists), twenty more may
// allocate answer + AllocBudget bytes each.
func PinWarmAllocs(t *testing.T, run func() (answer uint64)) {
	t.Helper()
	var answer uint64
	checked := func() {
		t.Helper()
		if answer = run(); answer == 0 {
			t.Fatal("the comparison found nothing: there is no answer to allocate")
		}
	}
	for i := 0; i < 8; i++ {
		checked()
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		checked()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes a run: %d of answer, %d besides", perRun, answer, int64(perRun)-int64(answer))
	if perRun > answer+AllocBudget {
		t.Errorf("a warm comparison allocates %d bytes for an answer of %d: %d besides, budget %d",
			perRun, answer, perRun-answer, AllocBudget)
	}
}

// VirtualOnly strips the wall-clock half of a result's step table, so what
// is left is deterministic. A breakdown needs no stripping: its phases
// carry virtual time alone.
func VirtualOnly(steps metrics.StepSpans) {
	for i := range steps {
		steps[i].Span.Wall = 0
	}
}

// Row appends a golden table's row to out: its label, a space, v as JSON.
func Row(t testing.TB, out *bytes.Buffer, label string, v any) {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "%s %s\n", label, js)
}

// Golden holds a table to the golden file at path, byte for byte, and
// fails the test at the first line that differs.
func Golden(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, the golden holds %d", path, len(gl), len(wl))
	}
}
