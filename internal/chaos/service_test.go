package chaos

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/synth"
)

// pairEnv is one store holding a divergent checkpoint pair with saved
// metadata — the unit fixture for the service-plane fault-isolation
// trials (seedGroup builds N-run groups; this one needs pairs on two
// independent stores).
type pairEnv struct {
	store        *pfs.Store
	nameA, nameB string
}

func seedPair(t *testing.T, elems int, seed int64, opts compare.Options) pairEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	perturb := synth.DefaultPerturb(seed)
	perturb.MagLo, perturb.MagHi = 1e-3, 1e-2
	perturb.UntouchedFrac = 0.5
	dataA, dataB := synth.RunPair(elems, 2, seed, perturb)
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: int64(elems)},
		{Name: "vx", DType: errbound.Float32, Count: int64(elems)},
	}
	env := pairEnv{store: store, nameA: ckpt.Name("runA", 10, 0), nameB: ckpt.Name("runB", 10, 0)}
	for run, data := range map[string][][]byte{"runA": dataA, "runB": dataB} {
		meta := ckpt.Meta{RunID: run, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(fields, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, ckpt.Name(run, 10, 0), m); err != nil {
			t.Fatal(err)
		}
	}
	store.EvictAll()
	return env
}

// scrubSvc zeroes the wall-clock-bearing fields for oracle equality.
func scrubSvc(r *compare.Result) *compare.Result {
	if r == nil {
		return nil
	}
	c := *r
	var zb compare.Result
	c.Breakdown = zb.Breakdown
	c.Steps = nil
	return &c
}

// TestServicePlaneFaultIsolation runs a chaos schedule against one
// session of a shared plane — a permanent-read fault schedule and a
// worker death mid-shard-comparison — while a
// bystander session on the same plane keeps comparing fault-free. The
// faults must stay confined: the victim's verdicts degrade (visibly,
// never silently), the bystander stays bit-identical to its serial
// oracle with clean statistics, and the plane still closes leak-free.
func TestServicePlaneFaultIsolation(t *testing.T) {
	opts := compare.Options{Epsilon: 1e-5, ChunkSize: 4 << 10}
	envV := seedPair(t, 32<<10, 91, opts)
	envB := seedPair(t, 32<<10, 92, opts)
	ctx := context.Background()

	// Serial oracles on the direct path; the second, warm-cache pass is
	// the reference, and the runs also warm the process-wide default pool
	// and ring before the goroutine baseline.
	var wantV, wantB *compare.Result
	for i := 0; i < 2; i++ {
		var err error
		wantV, err = compare.CompareMerkle(ctx, envV.store, envV.nameA, envV.nameB, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err = compare.CompareMerkle(ctx, envB.store, envB.nameA, envB.nameB, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	if wantV.DiffCount == 0 || wantB.DiffCount == 0 {
		t.Fatal("fixture pairs do not diverge; the trial is vacuous")
	}

	base := runtime.NumGoroutine()
	p := service.New(service.Config{MaxInFlight: 4})
	victim := p.Open("victim")
	bystander := p.Open("bystander")

	const bystanderRounds = 6
	var wg sync.WaitGroup
	var victimErr, bystanderErr error

	wg.Add(1)
	go func() { // victim: two faulted submissions
		defer wg.Done()
		// 1. Permanent read faults under the degradation ladder: the
		// verdict is degraded or an error — never silently clean.
		inj := faults.New(91, faults.Rule{Kind: faults.PermanentRead, Name: "/iter", After: 10})
		envV.store.SetFaultHook(inj)
		o := opts
		o.Degrade = true
		res, err := victim.Compare(ctx, envV.store, envV.nameA, envV.nameB, o)
		envV.store.SetFaultHook(nil)
		if st := inj.Stats(); st.ReadOps == 0 {
			t.Error("victim fault schedule never saw a read — the trial is vacuous")
		}
		if err == nil && !res.Degraded && res.UnverifiedChunks == 0 && res.DiffCount == 0 {
			t.Error("victim faulted compare reported silently clean")
		}
		if h := envV.store.OpenHandles(); h != 0 {
			t.Errorf("victim store leaked %d handles after faulted compare", h)
		}

		// 2. Worker death mid-shard-comparison: stealing absorbs it and
		// the verdict still matches the oracle.
		cfg := shard.Config{Workers: 4, Stealing: true, Chaos: shard.Chaos{Enabled: true, Worker: 1, AfterUnits: 1}}
		sres, _, err := victim.ShardCompare(ctx, envV.store, envV.nameA, envV.nameB, cfg, opts)
		if err != nil {
			victimErr = err
			return
		}
		if sres.DiffCount != wantV.DiffCount {
			t.Errorf("victim sharded compare after worker death: DiffCount %d, want %d", sres.DiffCount, wantV.DiffCount)
		}
	}()

	wg.Add(1)
	go func() { // bystander: fault-free rounds on the same plane
		defer wg.Done()
		for r := 0; r < bystanderRounds; r++ {
			res, err := bystander.Compare(ctx, envB.store, envB.nameA, envB.nameB, opts)
			if err != nil {
				bystanderErr = err
				return
			}
			if got, want := scrubSvc(res), scrubSvc(wantB); !deepEqualResult(got, want) {
				t.Errorf("bystander round %d: result diverges from serial oracle under victim faults", r)
			}
		}
	}()
	wg.Wait()

	if victimErr != nil {
		t.Fatalf("victim session: %v", victimErr)
	}
	if bystanderErr != nil {
		t.Fatalf("bystander session: %v", bystanderErr)
	}

	// The victim's degradation shows in its own counters only.
	vs := victim.Stats()
	if vs.Submitted != 2 || vs.Completed+vs.Failed != 2 {
		t.Errorf("victim stats: %+v", vs)
	}
	bs := bystander.Stats()
	want := service.Stats{Submitted: bystanderRounds, Completed: bystanderRounds, Divergent: bystanderRounds}
	if bs != want {
		t.Errorf("bystander stats contaminated: %+v, want %+v", bs, want)
	}

	if h := envB.store.OpenHandles(); h != 0 {
		t.Errorf("bystander store leaked %d handles", h)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("plane close after chaos: %v", err)
	}
	waitGoroutines(t, base)
}

func deepEqualResult(a, b *compare.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Method != b.Method || a.DiffCount != b.DiffCount || a.TotalElements != b.TotalElements ||
		a.CandidateChunks != b.CandidateChunks || a.ChangedChunks != b.ChangedChunks ||
		a.TotalChunks != b.TotalChunks || a.CASPrunedChunks != b.CASPrunedChunks ||
		a.CheckpointBytes != b.CheckpointBytes || a.BytesRead != b.BytesRead ||
		a.MetadataBytes != b.MetadataBytes || a.Degraded != b.Degraded ||
		a.UnverifiedChunks != b.UnverifiedChunks || a.ReadRetries != b.ReadRetries ||
		a.RingFallbacks != b.RingFallbacks || len(a.Diffs) != len(b.Diffs) {
		return false
	}
	for i := range a.Diffs {
		if a.Diffs[i].Field != b.Diffs[i].Field || len(a.Diffs[i].Indices) != len(b.Diffs[i].Indices) {
			return false
		}
		for j := range a.Diffs[i].Indices {
			if a.Diffs[i].Indices[j] != b.Diffs[i].Indices[j] {
				return false
			}
		}
	}
	return true
}
