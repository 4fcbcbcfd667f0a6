package repro_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro"
	"repro/internal/aio"
	"repro/internal/compare"
	"repro/internal/service"
	"repro/internal/synth"
)

// TestFacadeOracleBitIdentical pins the service-plane refactor's core
// contract: the facade entry points — now thin wrappers over the default
// plane's session — return Results and GroupReports bit-identical to the
// internal planners invoked directly, on every deterministic field
// (wall-clock-bearing Breakdown/Steps excluded).
func TestFacadeOracleBitIdentical(t *testing.T) {
	store, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-5, ChunkSize: 8 << 10}
	const elems = 32 << 10
	fields := []repro.FieldSpec{
		{Name: "x", DType: repro.Float32, Count: elems},
		{Name: "v", DType: repro.Float32, Count: elems},
	}
	dataA := [][]byte{synth.FieldF32(elems, 1), synth.FieldF32(elems, 2)}
	pert := synth.DefaultPerturb(3)
	pert.MagLo, pert.MagHi = 1e-4, 1e-2
	pert.UntouchedFrac = 0.5
	dataB := [][]byte{synth.PerturbF32(dataA[0], pert), synth.PerturbF32(dataA[1], pert)}
	ctx := context.Background()
	for _, rd := range []struct {
		run  string
		data [][]byte
	}{{"runA", dataA}, {"runB", dataB}} {
		meta := repro.Checkpoint{RunID: rd.run, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := repro.WriteCheckpoint(store, meta, rd.data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := repro.BuildAndSave(ctx, store, repro.CheckpointName(rd.run, 10, 0), opts); err != nil {
			t.Fatal(err)
		}
	}
	nameA := repro.CheckpointName("runA", 10, 0)
	nameB := repro.CheckpointName("runB", 10, 0)

	scrub := func(r *repro.Result) *repro.Result {
		c := *r
		c.Breakdown = compare.Result{}.Breakdown
		c.Steps = nil
		return &c
	}

	store.EvictAll()
	direct, err := compare.CompareMerkle(ctx, store, nameA, nameB, compare.Options(opts))
	if err != nil {
		t.Fatal(err)
	}
	store.EvictAll()
	facade, err := repro.Compare(ctx, store, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if direct.DiffCount == 0 {
		t.Fatal("fixture pair does not diverge; oracle is vacuous")
	}
	if !reflect.DeepEqual(scrub(facade), scrub(direct)) {
		t.Errorf("repro.Compare diverges from compare.CompareMerkle:\nfacade: %+v\ndirect: %+v", scrub(facade), scrub(direct))
	}

	store.EvictAll()
	directG, err := compare.GroupCompare(ctx, store, nameA, []string{nameB}, compare.TopologyStar, compare.Options(opts))
	if err != nil {
		t.Fatal(err)
	}
	store.EvictAll()
	facadeG, err := repro.GroupCompare(ctx, store, nameA, []string{nameB}, repro.TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	fg, dg := *facadeG, *directG
	fg.Breakdown, dg.Breakdown = compare.GroupReport{}.Breakdown, compare.GroupReport{}.Breakdown
	fg.Steps, dg.Steps = nil, nil
	for i := range fg.Pairs {
		fg.Pairs[i].Result = scrub(fg.Pairs[i].Result)
		dg.Pairs[i].Result = scrub(dg.Pairs[i].Result)
	}
	if !reflect.DeepEqual(fg, dg) {
		t.Errorf("repro.GroupCompare diverges from compare.GroupCompare:\nfacade: %+v\ndirect: %+v", fg, dg)
	}

	// The process has one set of default resources: what a direct planner
	// call defaults to is what the facade's plane serves from. So the calls
	// above started one pool and one ring — running both doors again starts
	// no goroutine.
	norm, err := compare.Options(opts).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Exec != service.Default().Executor() {
		t.Error("a direct call's default executor is not the default plane's pool")
	}
	if norm.Backend != aio.Backend(repro.DefaultBackend()) {
		t.Error("a direct call's default backend does not read through the default plane's ring")
	}
	before := runtime.NumGoroutine()
	if _, err := compare.CompareMerkle(ctx, store, nameA, nameB, compare.Options(opts)); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Compare(ctx, store, nameA, nameB, opts); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d → %d across a direct and a facade call on warm defaults", before, after)
	}
}
