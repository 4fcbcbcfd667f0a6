package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

const (
	testEps   = 1e-3
	testChunk = 4096 // 1024 float32 elements per chunk
)

// testPool is the two-worker executor of testOpts, shared by the
// package's tests and never closed, like device.Default.
var testPool = device.NewPool(2)

func testOpts() compare.Options {
	return compare.Options{
		Epsilon:   testEps,
		ChunkSize: testChunk,
		Exec:      testPool,
	}
}

// env is a pair of synthetic checkpoints with saved Merkle metadata.
type env struct {
	store        *pfs.Store
	nameA, nameB string
}

// bumpF32 pushes the float32 at element index i of data beyond ε.
func bumpF32(data []byte, i int) {
	v := math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(v+float32(50*testEps)))
}

// perturbUniform diverges one element per chunk across the whole field —
// every subtree of every field becomes a candidate.
func perturbUniform(fi int, data []byte) {
	elems := len(data) / 4
	for i := 0; i < elems; i += testChunk / 4 {
		bumpF32(data, i)
	}
}

// perturbSkewed diverges only the first quarter of field 0: all candidate
// subtrees land in a narrow band at the front of the global key space,
// the workload shape that punishes static block assignment.
func perturbSkewed(fi int, data []byte) {
	if fi != 0 {
		return
	}
	elems := len(data) / 4
	for i := 0; i < elems/4; i += testChunk / 4 {
		bumpF32(data, i)
	}
}

// newEnv writes two checkpoints (B mutated from A per field) plus their
// metadata and evicts the cache so every comparison starts cold.
func newEnv(t *testing.T, elems int, opts compare.Options, mutateB func(fi int, data []byte)) *env {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const nFields = 3
	fields := make([]ckpt.FieldSpec, nFields)
	dataA := make([][]byte, nFields)
	dataB := make([][]byte, nFields)
	for fi, n := range []string{"x", "vx", "phi"} {
		fields[fi] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(elems)}
		dataA[fi] = synth.FieldF32(elems, int64(100+fi))
		dataB[fi] = append([]byte{}, dataA[fi]...)
		if mutateB != nil {
			mutateB(fi, dataB[fi])
		}
	}
	e := &env{store: store, nameA: ckpt.Name("runA", 10, 0), nameB: ckpt.Name("runB", 10, 0)}
	for _, rd := range []struct {
		meta ckpt.Meta
		name string
		data [][]byte
	}{
		{ckpt.Meta{RunID: "runA", Iteration: 10, Rank: 0, Fields: fields}, e.nameA, dataA},
		{ckpt.Meta{RunID: "runB", Iteration: 10, Rank: 0, Fields: fields}, e.nameB, dataB},
	} {
		if _, err := ckpt.WriteCheckpoint(store, rd.meta, rd.data); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(fields, rd.data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, rd.name, m); err != nil {
			t.Fatal(err)
		}
	}
	store.EvictAll()
	return e
}

// assertSameResult asserts the sharded result is bit-identical to the
// single-node oracle in everything the comparison proves: diff indices,
// verdict flags, and chunk/element accounting. Pricing fields (Breakdown,
// BytesRead) are intentionally excluded — the sharded cost model differs.
func assertSameResult(t *testing.T, label string, got, want *compare.Result) {
	t.Helper()
	if got.DiffCount != want.DiffCount {
		t.Errorf("%s: DiffCount = %d, oracle %d", label, got.DiffCount, want.DiffCount)
	}
	if !reflect.DeepEqual(got.Diffs, want.Diffs) {
		t.Errorf("%s: Diffs diverge from oracle", label)
	}
	if got.ChangedChunks != want.ChangedChunks {
		t.Errorf("%s: ChangedChunks = %d, oracle %d", label, got.ChangedChunks, want.ChangedChunks)
	}
	if got.CandidateChunks != want.CandidateChunks {
		t.Errorf("%s: CandidateChunks = %d, oracle %d", label, got.CandidateChunks, want.CandidateChunks)
	}
	if got.TotalChunks != want.TotalChunks {
		t.Errorf("%s: TotalChunks = %d, oracle %d", label, got.TotalChunks, want.TotalChunks)
	}
	if got.TotalElements != want.TotalElements {
		t.Errorf("%s: TotalElements = %d, oracle %d", label, got.TotalElements, want.TotalElements)
	}
	if got.UnverifiedChunks != want.UnverifiedChunks || got.Degraded != want.Degraded {
		t.Errorf("%s: degradation (%d, %v), oracle (%d, %v)", label,
			got.UnverifiedChunks, got.Degraded, want.UnverifiedChunks, want.Degraded)
	}
	if got.Identical() != want.Identical() {
		t.Errorf("%s: Identical = %v, oracle %v", label, got.Identical(), want.Identical())
	}
}

// waitGoroutines polls until the goroutine count settles back to at most
// base — the zero-leak assertion for every execute path.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 128<<10)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompareOracle sweeps the configuration grid — worker counts,
// stealing, every assignment policy, striped and unstriped stores, a
// budget forcing multi-batch units — and requires bit-identity with
// CompareMerkle on both a uniform and a skewed divergence workload.
func TestCompareOracle(t *testing.T) {
	workloads := map[string]func(int, []byte){
		"uniform": perturbUniform,
		"skewed":  perturbSkewed,
	}
	for wname, mutate := range workloads {
		opts := testOpts()
		e := newEnv(t, 64<<10, opts, mutate)
		oracle, err := compare.CompareMerkle(context.Background(), e.store, e.nameA, e.nameB, opts)
		if err != nil {
			t.Fatal(err)
		}
		if oracle.DiffCount == 0 {
			t.Fatalf("%s: oracle found no diffs; workload is degenerate", wname)
		}
		cfgs := map[string]Config{
			"1worker":      {Workers: 1},
			"4block":       {Workers: 4, Assignment: AssignBlock},
			"4block-steal": {Workers: 4, Assignment: AssignBlock, Stealing: true},
			"4placement":   {Workers: 4, Assignment: AssignPlacement, Stealing: true},
			"4random":      {Workers: 4, Assignment: AssignRandom, Seed: 7},
			"8tinybudget":  {Workers: 8, Stealing: true, Budget: 2 * testChunk, SubtreeChunks: 4},
		}
		for cname, cfg := range cfgs {
			for _, striped := range []bool{false, true} {
				label := wname + "/" + cname
				if striped {
					label += "/striped"
					if err := e.store.SetStriping(pfs.Striping{Targets: 4, StripeBytes: 8 * testChunk}); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := e.store.SetStriping(pfs.Striping{}); err != nil {
						t.Fatal(err)
					}
				}
				e.store.EvictAll()
				base := runtime.NumGoroutine()
				res, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				waitGoroutines(t, base)
				assertSameResult(t, label, res, oracle)
				if res.Method != "merkle-shard" {
					t.Errorf("%s: method %q", label, res.Method)
				}
				if stats.Units == 0 {
					t.Errorf("%s: no work units for a divergent pair", label)
				}
				if stats.PeakInFlight > stats.BudgetBytes {
					t.Errorf("%s: peak in-flight %d exceeds budget %d", label, stats.PeakInFlight, stats.BudgetBytes)
				}
			}
		}
	}
}

// TestCompareIdenticalRuns: zero divergence means zero units and a clean
// empty report, same as the oracle's.
func TestCompareIdenticalRuns(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 16<<10, opts, nil)
	oracle, err := compare.CompareMerkle(context.Background(), e.store, e.nameA, e.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, Config{Workers: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "identical", res, oracle)
	if stats.Units != 0 || !res.Identical() {
		t.Errorf("identical runs: units = %d, Identical = %v", stats.Units, res.Identical())
	}
}

// TestBudgetInvariant forces multi-window units with small budgets and
// asserts no worker ever held more than Budget bytes in flight. The window
// is cut from the chunk size the METADATA was built at — the options'
// ChunkSize need not agree with it — and holds whole chunks only: a budget
// of 5 chunks is a window of 2 per side, 4 in flight.
func TestBudgetInvariant(t *testing.T) {
	unset := testOpts()
	unset.ChunkSize = 0 // defaults to 64 KiB; the metadata says 4 KiB
	for name, tc := range map[string]struct {
		opts     compare.Options
		budget   int64
		wantPeak int64 // 0: anything in (0, budget]
	}{
		"one-chunk-pair":       {testOpts(), 2 * testChunk, 2 * testChunk},
		"five-chunks":          {testOpts(), 5 * testChunk, 4 * testChunk},
		"options-chunk-larger": {unset, 16 << 10, 16 << 10},
	} {
		e := newEnv(t, 64<<10, testOpts(), perturbUniform)
		cfg := Config{Workers: 4, Stealing: true, Budget: tc.budget, SubtreeChunks: 8}
		_, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.PeakInFlight <= 0 || stats.PeakInFlight > cfg.Budget {
			t.Errorf("%s: peak in-flight %d outside (0, %d]", name, stats.PeakInFlight, cfg.Budget)
		}
		if tc.wantPeak != 0 && stats.PeakInFlight != tc.wantPeak {
			t.Errorf("%s: peak in-flight %d, want %d", name, stats.PeakInFlight, tc.wantPeak)
		}
		for w, pw := range stats.PerWorker {
			if pw.PeakInFlight > cfg.Budget {
				t.Errorf("%s: worker %d peak in-flight %d exceeds budget %d", name, w, pw.PeakInFlight, cfg.Budget)
			}
		}
	}
}

// TestBudgetRejectsSubChunk: a budget below one chunk pair can never make
// progress and must be rejected up front — one pair of the chunks stage 2
// will actually read, the metadata's, not the options'.
func TestBudgetRejectsSubChunk(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 4<<10, opts, nil)
	_, _, err := Compare(context.Background(), e.store, e.nameA, e.nameB, Config{Budget: testChunk}, opts)
	if err == nil {
		t.Fatal("budget below 2×chunk accepted")
	}

	big := testOpts()
	big.ChunkSize = 1 << 20
	e = newEnv(t, 256<<10, big, perturbUniform)
	big.ChunkSize = 0 // the default, 64 KiB: 128 KiB would be two of those
	if _, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, Config{Budget: 128 << 10}, big); err == nil {
		t.Fatalf("budget of 128 KiB accepted over 1 MiB chunks (held %d bytes in flight)", stats.PeakInFlight)
	}
}

// TestChaosKillRestealed kills one worker mid-comparison with stealing
// on: peers re-steal its returned unit, the report stays bit-identical,
// and no goroutine leaks.
func TestChaosKillRestealed(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 64<<10, opts, perturbUniform)
	oracle, err := compare.CompareMerkle(context.Background(), e.store, e.nameA, e.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.store.EvictAll()
	base := runtime.NumGoroutine()
	cfg := Config{Workers: 4, Stealing: true, Chaos: Chaos{Enabled: true, Worker: 1, AfterUnits: 1}}
	res, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	assertSameResult(t, "chaos-steal", res, oracle)
	if stats.WorkerFailures != 1 || !stats.PerWorker[1].Died {
		t.Errorf("worker failures = %d, died[1] = %v; want 1, true", stats.WorkerFailures, stats.PerWorker[1].Died)
	}
	if stats.Steals == 0 && stats.CoordinatorUnits == 0 {
		t.Error("killed worker's units were neither stolen nor drained")
	}
}

// TestChaosKillCoordinatorDrain kills a worker with stealing OFF: nobody
// re-steals, so the coordinator's drain fallback must execute the
// orphaned units itself — degraded throughput, never a dropped verdict.
func TestChaosKillCoordinatorDrain(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 64<<10, opts, perturbUniform)
	oracle, err := compare.CompareMerkle(context.Background(), e.store, e.nameA, e.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.store.EvictAll()
	base := runtime.NumGoroutine()
	cfg := Config{Workers: 4, Chaos: Chaos{Enabled: true, Worker: 0, AfterUnits: 0}}
	res, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	assertSameResult(t, "chaos-drain", res, oracle)
	if stats.CoordinatorUnits == 0 {
		t.Error("no coordinator drain despite a dead worker and stealing off")
	}
	if stats.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1", stats.WorkerFailures)
	}
	if stats.MakespanVirtual <= 0 {
		t.Error("makespan not accounted")
	}
}

// TestDegradeIntegrityReread flips bits on two reads under Degrade: the
// integrity rung catches the corruption against the unit's leaf digests
// and the one-shot re-read recovers clean bytes, so the report stays
// bit-identical and undegraded.
func TestDegradeIntegrityReread(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 64<<10, opts, perturbUniform)
	oracle, err := compare.CompareMerkle(context.Background(), e.store, e.nameA, e.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.store.EvictAll()
	opts.Degrade = true
	// Two one-shot flips spaced apart: a Count-bounded rule that can fire
	// on consecutive reads would corrupt the integrity re-read too.
	inj := faults.New(1,
		faults.Rule{Kind: faults.BitFlip, Name: e.nameB, After: 4},
		faults.Rule{Kind: faults.BitFlip, Name: e.nameB, After: 9})
	e.store.SetFaultHook(inj)
	defer e.store.SetFaultHook(nil)
	res, _, err := Compare(context.Background(), e.store, e.nameA, e.nameB, Config{Workers: 4, Stealing: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "bitflip-reread", res, oracle)
	if got := inj.Stats(); got.BitFlips == 0 {
		t.Skip("fault schedule never fired (reads landed elsewhere)")
	}
}

// TestDegradeUnreadable makes every read of run B's container fail
// permanently partway through: with Degrade the comparison must complete
// with the affected chunks counted unverified, never dropped or
// miscounted as clean.
func TestDegradeUnreadable(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 64<<10, opts, perturbUniform)
	oracle, err := compare.CompareMerkle(context.Background(), e.store, e.nameA, e.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.store.EvictAll()
	opts.Degrade = true
	inj := faults.New(1, faults.Rule{Kind: faults.PermanentRead, Name: e.nameB, After: 8, Count: -1})
	e.store.SetFaultHook(inj)
	defer e.store.SetFaultHook(nil)
	base := runtime.NumGoroutine()
	res, _, err := Compare(context.Background(), e.store, e.nameA, e.nameB, Config{Workers: 4, Stealing: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	if !res.Degraded || res.UnverifiedChunks == 0 {
		t.Fatalf("Degraded = %v, UnverifiedChunks = %d; want degraded report", res.Degraded, res.UnverifiedChunks)
	}
	if res.Identical() {
		t.Error("degraded report claims a clean match")
	}
	if res.DiffCount > oracle.DiffCount {
		t.Errorf("degraded DiffCount %d exceeds oracle %d", res.DiffCount, oracle.DiffCount)
	}
	if res.ChangedChunks+res.UnverifiedChunks > res.CandidateChunks {
		t.Errorf("changed %d + unverified %d exceed candidates %d",
			res.ChangedChunks, res.UnverifiedChunks, res.CandidateChunks)
	}
}

// cancelHook cancels a context after N reads of one file — a
// deterministic mid-stage-2 cancellation.
type cancelHook struct {
	faults.Nop
	name   string
	after  int
	cancel context.CancelFunc

	mu    sync.Mutex
	count int
}

func (h *cancelHook) BeforeRead(name string, off int64, n int) error {
	if name == h.name {
		h.mu.Lock()
		h.count++
		fire := h.count == h.after
		h.mu.Unlock()
		if fire {
			h.cancel()
		}
	}
	return nil
}

// TestCancellation cancels the context from inside a stage-2 read:
// workers stop, the error propagates, and nothing leaks.
func TestCancellation(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 64<<10, opts, perturbUniform)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.store.SetFaultHook(&cancelHook{name: e.nameB, after: 4, cancel: cancel})
	defer e.store.SetFaultHook(nil)
	base := runtime.NumGoroutine()
	_, _, err := Compare(ctx, e.store, e.nameA, e.nameB, Config{Workers: 4, Stealing: true}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}

// TestStealingBeatsStatic is the scale-out claim on the skewed workload:
// with 8 workers and every divergent subtree in the front of the key
// space, work stealing must cut the virtual makespan at least 1.5× vs
// the static block assignment. TestScaleOutMatchesBaseline holds the
// numbers of the full-size skewed table (8.0× at 8 workers).
func TestStealingBeatsStatic(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 128<<10, opts, perturbSkewed)
	if err := e.store.SetStriping(pfs.Striping{Targets: 8, StripeBytes: 8 * testChunk}); err != nil {
		t.Fatal(err)
	}
	run := func(stealing bool) *Stats {
		e.store.EvictAll()
		cfg := Config{Workers: 8, Assignment: AssignBlock, Stealing: stealing, SubtreeChunks: 4}
		_, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	static := run(false)
	steal := run(true)
	if steal.Steals == 0 {
		t.Fatal("stealing run recorded no steals on a skewed workload")
	}
	if float64(static.MakespanVirtual) < 1.5*float64(steal.MakespanVirtual) {
		t.Errorf("stealing makespan %v not ≥1.5× better than static %v",
			steal.MakespanVirtual, static.MakespanVirtual)
	}
}

// TestPlacementBeatsRandom is the striping claim on the uniform workload:
// placement-aware assignment keeps each OST read by one worker, so its
// total read virtual time beats random assignment, whose every target is
// shared by many workers. It runs at a larger chunk size than the other
// tests: with 4KiB chunks the Lustre pricing is latency-dominated and an
// out-of-order schedule can turn boundary-page residency into whole-op
// cache hits, drowning the contention signal; at 64KiB no single chunk
// read can ever be fully cached, so the per-target sharers factor on the
// bandwidth term is the only difference between the policies.
func TestPlacementBeatsRandom(t *testing.T) {
	const bigChunk = 64 << 10
	opts := testOpts()
	opts.ChunkSize = bigChunk
	e := newEnv(t, 256<<10, opts, func(fi int, data []byte) {
		for i := 0; i < len(data)/4; i += bigChunk / 4 {
			bumpF32(data, i)
		}
	})
	if err := e.store.SetStriping(pfs.Striping{Targets: 4, StripeBytes: 2 * bigChunk}); err != nil {
		t.Fatal(err)
	}
	run := func(a Assignment) *Stats {
		e.store.EvictAll()
		cfg := Config{Workers: 4, Assignment: a, Seed: 7, SubtreeChunks: 2}
		_, stats, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	placement := run(AssignPlacement)
	random := run(AssignRandom)
	if placement.ReadVirtual >= random.ReadVirtual {
		t.Errorf("placement read virtual %v not below random %v",
			placement.ReadVirtual, random.ReadVirtual)
	}
}

// TestGroupOracle requires bit-identity of every pair's verdict against
// compare.GroupCompare, for both topologies, with the whole group's
// subtrees pooled across the worker fleet.
func TestGroupOracle(t *testing.T) {
	opts := testOpts()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const nFields, elems = 3, 32 << 10
	fields := make([]ckpt.FieldSpec, nFields)
	base := make([][]byte, nFields)
	for fi, n := range []string{"x", "vx", "phi"} {
		fields[fi] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(elems)}
		base[fi] = synth.FieldF32(elems, int64(200+fi))
	}
	var names []string
	for m := 0; m < 3; m++ {
		data := make([][]byte, nFields)
		for fi := range base {
			data[fi] = append([]byte{}, base[fi]...)
			if m > 0 {
				// Each non-baseline member diverges in its own stripe.
				for i := m * 64; i < elems; i += 1024 {
					bumpF32(data[fi], i)
				}
			}
		}
		runID := []string{"base", "runX", "runY"}[m]
		if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: runID, Iteration: 5, Rank: 0, Fields: fields}, data); err != nil {
			t.Fatal(err)
		}
		md, _, err := compare.Build(fields, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := ckpt.Name(runID, 5, 0)
		if _, err := compare.SaveMetadata(store, name, md); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for _, topo := range []compare.Topology{compare.TopologyStar, compare.TopologyAllPairs} {
		store.EvictAll()
		oracle, err := compare.GroupCompare(context.Background(), store, names[0], names[1:], topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		store.EvictAll()
		cfg := Config{Workers: 4, Stealing: true, SubtreeChunks: 4}
		rep, stats, err := GroupCompare(context.Background(), store, names[0], names[1:], topo, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Pairs) != len(oracle.Pairs) {
			t.Fatalf("%v: %d pairs, oracle %d", topo, len(rep.Pairs), len(oracle.Pairs))
		}
		for pi := range rep.Pairs {
			gp, op := rep.Pairs[pi], oracle.Pairs[pi]
			if gp.A != op.A || gp.B != op.B || gp.NameA != op.NameA || gp.NameB != op.NameB {
				t.Errorf("%v pair %d: identity mismatch", topo, pi)
			}
			assertSameResult(t, topo.String()+"/pair", gp.Result, op.Result)
		}
		if rep.Reproducible() != oracle.Reproducible() {
			t.Errorf("%v: Reproducible = %v, oracle %v", topo, rep.Reproducible(), oracle.Reproducible())
		}
		if stats.Units == 0 {
			t.Errorf("%v: no units for a divergent group", topo)
		}
	}
}

// TestCompareDeterminism runs the same sharded comparison twice with
// stealing on (schedule nondeterminism at its worst) and requires the
// fully identical Result both times.
func TestCompareDeterminism(t *testing.T) {
	opts := testOpts()
	e := newEnv(t, 64<<10, opts, perturbUniform)
	cfg := Config{Workers: 8, Stealing: true, SubtreeChunks: 2}
	run := func() *compare.Result {
		e.store.EvictAll()
		res, _, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1.Diffs, r2.Diffs) || r1.DiffCount != r2.DiffCount ||
		r1.ChangedChunks != r2.ChangedChunks {
		t.Error("two sharded runs of the same comparison disagree")
	}
}
