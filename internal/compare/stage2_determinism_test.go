package compare

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// This file pins the stage-2 kernel's two contracts across every entry
// point that runs it: results do not depend on the executor (serial, or a
// pool of any size — diffs and their order, chunk counts, unverified
// counts and every virtual-time column are deep-equal), and they equal an
// independent element-wise oracle on adversarial values.

// oracleDiffs is the element-wise oracle: the indices at which two raw
// float32 fields differ by more than eps, written without reference to
// errbound. Two NaNs agree, infinities agree only with themselves, and
// -0 equals +0.
func oracleDiffs(a, b []byte, eps float64) []int64 {
	var out []int64
	for i := 0; i+4 <= len(a); i += 4 {
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(a[i:])))
		y := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		var same bool
		switch {
		case math.IsNaN(x) || math.IsNaN(y):
			same = math.IsNaN(x) && math.IsNaN(y)
		case math.IsInf(x, 0) || math.IsInf(y, 0):
			same = x == y
		default:
			same = math.Abs(x-y) <= eps
		}
		if !same {
			out = append(out, int64(i/4))
		}
	}
	return out
}

// straddle rewrites elements of b (every stride-th, from first) so that
// a[i] and b[i] sit one float32 ULP either side of exactly eps apart, and
// plants the IEEE special cases in both runs.
func straddle(a, b []byte, eps float64, first, stride int) {
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
}

// flipBackend simulates in-flight corruption deterministically: every
// request buffer read from a file whose name contains match gets one high
// exponent bit flipped after the inner read lands. Integrity re-reads go
// straight to the file and see clean bytes.
type flipBackend struct {
	inner aio.Backend
	match string
}

func (b flipBackend) Name() string { return "flip" }

func (b flipBackend) ReadBatch(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	cost, io, err := b.inner.ReadBatch(ctx, f, reqs)
	if err == nil && strings.Contains(f.Name(), b.match) {
		for _, r := range reqs {
			r.Buf[3] ^= 0x40
		}
	}
	return cost, io, err
}

// virtualOnly strips the wall-clock half of a result's timing tables.
func virtualOnly(b *metrics.Breakdown, steps metrics.StepSpans) {
	var out metrics.Breakdown
	for _, p := range metrics.Phases() {
		out.AddVirtual(p, b.Get(p).Virtual)
	}
	*b = out
	for i := range steps {
		steps[i].Span.Wall = 0
	}
}

func normResult(r *Result) *Result {
	virtualOnly(&r.Breakdown, r.Steps)
	return r
}

func normGroup(g *GroupReport) *GroupReport {
	virtualOnly(&g.Breakdown, g.Steps)
	for i := range g.Pairs {
		normResult(g.Pairs[i].Result)
	}
	return g
}

type detShape struct {
	name       string
	elems      int // float32 elements per field, three fields per run
	chunk      int
	sliceBytes int
	fields     []string
	degrade    bool
	// stride spaces the ε-straddling elements: 61 puts some in every
	// chunk, thousands leave most chunks to the perturbation alone, so
	// candidates come in runs with holes between them.
	stride int
}

// detOutputs is everything one executor produced for one shape.
type detOutputs struct {
	Merkle, Direct, DiffCold, DiffWarm *Result
	Star, AllPairs                     *GroupReport
}

func TestStage2DeterministicAcrossExecutors(t *testing.T) {
	const eps = 1e-5
	shapes := []detShape{
		{name: "single-chunk", elems: 1000, chunk: 64 << 10, stride: 61},
		{name: "ragged-final-chunk", elems: 10_037, chunk: 4 << 10, stride: 61},
		{name: "few-pairs-per-slice", elems: 64 << 10, chunk: 4 << 10, sliceBytes: 64 << 10, stride: 5003},
		{name: "many-slices", elems: 256 << 10, chunk: 16 << 10, sliceBytes: 128 << 10, stride: 61},
		{name: "fields-filter", elems: 32 << 10, chunk: 4 << 10, fields: []string{"vx"}, stride: 2503},
		{name: "degrade-bit-flip", elems: 48 << 10, chunk: 4 << 10, sliceBytes: 96 << 10, degrade: true, stride: 3001},
	}
	execs := []struct {
		name string
		make func() (device.Executor, func())
	}{
		{"serial", func() (device.Executor, func()) { return device.Serial{}, func() {} }},
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		execs = append(execs, struct {
			name string
			make func() (device.Executor, func())
		}{fmt.Sprintf("pool-%d", w), func() (device.Executor, func()) {
			p := device.NewPool(w)
			return p, p.Close
		}})
	}

	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			env := newDetEnv(t, sh, eps)
			var ref *detOutputs
			for _, ex := range execs {
				exec, closeExec := ex.make()
				out := env.run(t, exec)
				closeExec()
				if ref == nil {
					ref = out
					env.checkOracle(t, out)
					continue
				}
				if !reflect.DeepEqual(ref, out) {
					t.Errorf("%s differs from serial:\n%s", ex.name, firstDifference(ref, out))
				}
			}
		})
	}
}

// detEnv is three runs of one shape, stored twice: as checkpoint
// containers with metadata, and differentially captured into a CAS.
type detEnv struct {
	shape  detShape
	eps    float64
	opts   Options
	store  *pfs.Store
	names  []string
	data   [][][]byte
	fields []ckpt.FieldSpec
	diff   *diffEnv
	dnames []string
}

func newDetEnv(t *testing.T, sh detShape, eps float64) *detEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	env := &detEnv{
		shape: sh, eps: eps, store: store,
		fields: f32Fields([]string{"x", "vx", "phi"}, sh.elems),
		opts: Options{
			Epsilon: eps, ChunkSize: sh.chunk, SliceBytes: sh.sliceBytes,
			// The default start level follows the executor's width; pin it
			// so stage 1 prices the same at every worker count.
			StartLevel: 1,
		},
	}
	base := make([][]byte, len(env.fields))
	for fi := range base {
		base[fi] = synth.FieldF32(sh.elems, int64(100+fi))
	}
	env.data = append(env.data, base)
	for ri := 1; ri <= 2; ri++ {
		run := make([][]byte, len(base))
		for fi := range base {
			run[fi] = synth.PerturbF32(base[fi], synth.DefaultPerturb(int64(10*ri+fi)))
			straddle(base[fi], run[fi], eps, 7*ri+fi, sh.stride)
		}
		env.data = append(env.data, run)
	}
	// straddle planted specials in the baseline too; later runs were
	// perturbed from earlier baselines, which the oracle does not care
	// about — it compares what is on disk.
	env.diff = newDiffEnv(t, env.opts)
	for ri, runID := range []string{"runA", "runB", "runC"} {
		meta := ckpt.Meta{RunID: runID, Iteration: 10, Rank: 0, Fields: env.fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, env.data[ri]); err != nil {
			t.Fatal(err)
		}
		name := ckpt.Name(runID, 10, 0)
		m, _, err := Build(env.fields, env.data[ri], env.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SaveMetadata(store, name, m); err != nil {
			t.Fatal(err)
		}
		env.names = append(env.names, name)
		dname, _ := env.diff.capture(t, runID, 10, env.fields, env.data[ri])
		env.dnames = append(env.dnames, dname)
	}
	return env
}

// run drives every stage-2 entry point once on exec, each from a cold
// page cache, and returns the wall-stripped outputs.
func (e *detEnv) run(t *testing.T, exec device.Executor) *detOutputs {
	t.Helper()
	ctx := context.Background()
	opts := e.opts
	opts.Exec = exec
	opts.Fields = e.shape.fields
	sweep := opts
	if e.shape.degrade {
		opts.Degrade = true
		opts.Backend = flipBackend{inner: fallbackCoalescing(), match: "runB"}
	}
	out := &detOutputs{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	e.store.EvictAll()
	out.Merkle, err = CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts)
	must(err)
	e.store.EvictAll()
	// The direct sweep has no integrity rung: it runs on the clean backend.
	out.Direct, err = CompareDirect(ctx, e.store, e.names[0], e.names[1], sweep)
	must(err)
	e.store.EvictAll()
	out.Star, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:], TopologyStar, opts)
	must(err)
	e.store.EvictAll()
	out.AllPairs, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:], TopologyAllPairs, opts)
	must(err)

	dopts := opts
	dopts.Memo = NewCASMemo(e.eps)
	e.diff.store.EvictAll()
	out.DiffCold, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], dopts)
	must(err)
	e.diff.store.EvictAll()
	out.DiffWarm, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], dopts)
	must(err)

	for _, r := range []*Result{out.Merkle, out.Direct, out.DiffCold, out.DiffWarm} {
		normResult(r)
	}
	normGroup(out.Star)
	normGroup(out.AllPairs)
	return out
}

// checkOracle holds every entry point's diffs against the element-wise
// oracle: nothing beyond ε missed, nothing within ε reported.
func (e *detEnv) checkOracle(t *testing.T, out *detOutputs) {
	t.Helper()
	want := func(a, b int) map[string][]int64 {
		m := make(map[string][]int64)
		for fi, f := range e.fields {
			if len(e.shape.fields) > 0 && !slices.Contains(e.shape.fields, f.Name) {
				continue
			}
			if idx := oracleDiffs(e.data[a][fi], e.data[b][fi], e.eps); len(idx) > 0 {
				m[f.Name] = idx
			}
		}
		return m
	}
	check := func(label string, r *Result, a, b int) {
		t.Helper()
		if r.Degraded || r.UnverifiedChunks != 0 {
			t.Errorf("%s: degraded (%d unverified) on a recoverable fault", label, r.UnverifiedChunks)
		}
		assertSameDiffs(t, want(a, b), diffsToMap(r.Diffs), label)
	}
	if out.Merkle.CandidateChunks == 0 || out.Merkle.DiffCount == 0 {
		t.Fatalf("shape exercises no stage 2: %d candidates, %d diffs", out.Merkle.CandidateChunks, out.Merkle.DiffCount)
	}
	t.Logf("merkle: %d/%d chunks candidates, %d diffs", out.Merkle.CandidateChunks, out.Merkle.TotalChunks, out.Merkle.DiffCount)
	check("merkle", out.Merkle, 0, 1)
	check("direct", out.Direct, 0, 1)
	check("cas-diff cold", out.DiffCold, 0, 1)
	check("cas-diff warm", out.DiffWarm, 0, 1)
	if out.DiffWarm.CASPrunedChunks == 0 && out.DiffCold.CandidateChunks > 0 {
		t.Error("warm memo pruned nothing: the cold run's kernel did not memoize")
	}
	for _, g := range []*GroupReport{out.Star, out.AllPairs} {
		for _, p := range g.Pairs {
			check(fmt.Sprintf("group %s %d-%d", g.Topology, p.A, p.B), p.Result, p.A, p.B)
		}
	}
}

// firstDifference names the first top-level output that differs.
func firstDifference(a, b *detOutputs) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s:\n  serial %+v\n  got    %+v", va.Type().Field(i).Name,
				va.Field(i).Elem().Interface(), vb.Field(i).Elem().Interface())
		}
	}
	return "(no field differs)"
}
