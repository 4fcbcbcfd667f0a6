package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

const (
	svcEps   = 1e-5
	svcChunk = 4 << 10
)

func svcOpts() compare.Options {
	return compare.Options{Epsilon: svcEps, ChunkSize: svcChunk}
}

// svcEnv is a store with two perturbed runs and their saved metadata.
type svcEnv struct {
	store        *pfs.Store
	nameA, nameB string
}

func newSvcEnv(t *testing.T, elems int, seed int64) *svcEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	perturb := synth.PerturbConfig{
		Seed:          seed,
		BlockElems:    512,
		MagLo:         1e-3,
		MagHi:         1e-2,
		UntouchedFrac: 0.5,
		ChangedFrac:   0.2,
	}
	dataA, dataB := synth.RunPair(elems, 2, seed, perturb)
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: int64(elems)},
		{Name: "vx", DType: errbound.Float32, Count: int64(elems)},
	}
	e := &svcEnv{store: store, nameA: ckpt.Name("runA", 10, 0), nameB: ckpt.Name("runB", 10, 0)}
	for run, data := range map[string][][]byte{"runA": dataA, "runB": dataB} {
		meta := ckpt.Meta{RunID: run, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(fields, data, svcOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, ckpt.Name(run, 10, 0), m); err != nil {
			t.Fatal(err)
		}
	}
	store.EvictAll()
	return e
}

// scrubResult clears the timing-bearing fields (host wall time is not
// deterministic); everything else must be bit-identical across paths.
func scrubResult(r *compare.Result) *compare.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Breakdown = metricsZero(c.Breakdown)
	c.Steps = nil
	return &c
}

// metricsZero returns the zero value of the breakdown's type without
// naming it (keeps the scrubber trivially in sync with the struct).
func metricsZero[T any](T) T { var z T; return z }

func scrubGroup(rep *compare.GroupReport) *compare.GroupReport {
	if rep == nil {
		return nil
	}
	c := *rep
	c.Breakdown = metricsZero(c.Breakdown)
	c.Steps = nil
	// The pipeline's overlapped virtual time prices against shared ring
	// and cache state, and ReadOps/ReadBytes are deltas of store-global
	// counters, so concurrent submissions on one store legitimately
	// perturb all three; the serial oracle test asserts them exactly.
	c.PipelineVirtual = 0
	c.ReadOps = 0
	c.ReadBytes = 0
	c.Pairs = append([]compare.GroupPairReport(nil), rep.Pairs...)
	for i := range c.Pairs {
		c.Pairs[i].Result = scrubResult(c.Pairs[i].Result)
	}
	return &c
}

// TestSessionOracleBitIdentical proves the plane path changes no
// verdicts: a session comparison and a direct planner call (the
// process-wide default resources, identical shape) agree on every deterministic
// Result field, including the virtual-cost accounting.
func TestSessionOracleBitIdentical(t *testing.T) {
	e := newSvcEnv(t, 32<<10, 42)
	ctx := context.Background()

	e.store.EvictAll()
	direct, err := compare.CompareMerkle(ctx, e.store, e.nameA, e.nameB, svcOpts())
	if err != nil {
		t.Fatal(err)
	}

	p := testPlane(t, Config{})
	s := p.Open("acme")
	e.store.EvictAll()
	planed, err := s.Compare(ctx, e.store, e.nameA, e.nameB, svcOpts())
	if err != nil {
		t.Fatal(err)
	}
	if direct.DiffCount == 0 {
		t.Fatal("fixture pair does not diverge; oracle is vacuous")
	}
	if !reflect.DeepEqual(scrubResult(planed), scrubResult(direct)) {
		t.Errorf("session Compare diverges from direct call:\n plane: %+v\ndirect: %+v", scrubResult(planed), scrubResult(direct))
	}

	// Group comparisons agree too.
	e.store.EvictAll()
	directG, err := compare.GroupCompare(ctx, e.store, e.nameA, []string{e.nameB}, compare.TopologyStar, svcOpts())
	if err != nil {
		t.Fatal(err)
	}
	e.store.EvictAll()
	planedG, err := s.GroupCompare(ctx, e.store, e.nameA, []string{e.nameB}, compare.TopologyStar, svcOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrubGroup(planedG), scrubGroup(directG)) {
		t.Error("session GroupCompare diverges from direct call")
	}
	if planedG.PipelineVirtual != directG.PipelineVirtual {
		t.Errorf("serial pipeline virtual time diverges: plane %v, direct %v", planedG.PipelineVirtual, directG.PipelineVirtual)
	}
	if planedG.ReadOps != directG.ReadOps || planedG.ReadBytes != directG.ReadBytes {
		t.Errorf("serial read accounting diverges: plane %d ops/%d B, direct %d ops/%d B",
			planedG.ReadOps, planedG.ReadBytes, directG.ReadOps, directG.ReadBytes)
	}

	st := s.Stats()
	if st.Submitted != 2 || st.Completed != 2 || st.Divergent != 2 || st.Rejected != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestConcurrentSessions runs mixed comparisons from several tenants'
// sessions concurrently over one plane and requires (a) every result
// bit-identical to the serial oracle, (b) per-session statistics that
// never interleave, and (c) a leak-free Close: no goroutines beyond the
// pre-plane baseline survive.
func TestConcurrentSessions(t *testing.T) {
	envC := newSvcEnv(t, 16<<10, 7)  // Compare arm
	envG := newSvcEnv(t, 16<<10, 8)  // GroupCompare arm
	envT := newSvcEnv(t, 16<<10, 9)  // CompareTreesOnly arm
	ctx := context.Background()

	// Serial oracle on the direct planner paths. Each oracle runs twice
	// and keeps the second, warm-cache result: virtual read costs (e.g.
	// GroupReport.PipelineVirtual) depend on PFS cache temperature, and
	// the concurrent rounds below all run against the warmed cache. The
	// pass also warms the process-wide default pool and ring, so the
	// goroutine baseline below includes them.
	var wantC, wantT *compare.Result
	var wantG *compare.GroupReport
	for i := 0; i < 2; i++ {
		var err error
		wantC, err = compare.CompareMerkle(ctx, envC.store, envC.nameA, envC.nameB, svcOpts())
		if err != nil {
			t.Fatal(err)
		}
		wantG, err = compare.GroupCompare(ctx, envG.store, envG.nameA, []string{envG.nameB}, compare.TopologyStar, svcOpts())
		if err != nil {
			t.Fatal(err)
		}
		wantT, err = compare.CompareTreesOnly(ctx, envT.store, envT.nameA, envT.nameB, svcOpts())
		if err != nil {
			t.Fatal(err)
		}
	}

	base := runtime.NumGoroutine()
	p := New(Config{MaxInFlight: 4})

	const tenants = 4
	const rounds = 3
	type outcome struct {
		res   []*compare.Result
		grp   []*compare.GroupReport
		trees []*compare.Result
		stats Stats
		err   error
	}
	outcomes := make([]outcome, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := p.Open(fmt.Sprintf("tenant-%d", i))
			o := &outcomes[i]
			for r := 0; r < rounds; r++ {
				res, err := s.Compare(ctx, envC.store, envC.nameA, envC.nameB, svcOpts())
				if err != nil {
					o.err = err
					return
				}
				o.res = append(o.res, res)
				grp, err := s.GroupCompare(ctx, envG.store, envG.nameA, []string{envG.nameB}, compare.TopologyStar, svcOpts())
				if err != nil {
					o.err = err
					return
				}
				o.grp = append(o.grp, grp)
				trees, err := s.CompareTreesOnly(ctx, envT.store, envT.nameA, envT.nameB, svcOpts())
				if err != nil {
					o.err = err
					return
				}
				o.trees = append(o.trees, trees)
			}
			o.stats = s.Stats()
		}(i)
	}
	wg.Wait()

	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			t.Fatalf("tenant %d: %v", i, o.err)
		}
		for r := 0; r < rounds; r++ {
			if !reflect.DeepEqual(scrubResult(o.res[r]), scrubResult(wantC)) {
				t.Errorf("tenant %d round %d: Compare diverges from serial oracle", i, r)
			}
			if !reflect.DeepEqual(scrubGroup(o.grp[r]), scrubGroup(wantG)) {
				a, _ := json.Marshal(scrubGroup(wantG))
				b, _ := json.Marshal(scrubGroup(o.grp[r]))
				t.Errorf("tenant %d round %d: GroupCompare diverges from serial oracle\nwant %s\n got %s", i, r, a, b)
			}
			if !reflect.DeepEqual(scrubResult(o.trees[r]), scrubResult(wantT)) {
				t.Errorf("tenant %d round %d: CompareTreesOnly diverges from serial oracle", i, r)
			}
		}
		// Per-session counters are exact — concurrent sessions never bleed
		// into each other's statistics.
		want := Stats{Submitted: 3 * rounds, Completed: 3 * rounds, Divergent: 3 * rounds}
		if o.stats != want {
			t.Errorf("tenant %d stats: %+v, want %+v", i, o.stats, want)
		}
	}

	if peak := p.PeakInFlight(); peak < 1 || peak > 4 {
		t.Errorf("peak in-flight %d outside [1,4]", peak)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, base)
}

// TestPlaneSaturation floods a two-slot plane far beyond its capacity
// and requires (a) every admitted comparison to succeed with the oracle
// verdict and (b) the concurrent-execution high-water mark to respect
// MaxInFlight exactly.
func TestPlaneSaturation(t *testing.T) {
	e := newSvcEnv(t, 16<<10, 21)
	ctx := context.Background()
	e.store.EvictAll()
	want, err := compare.CompareMerkle(ctx, e.store, e.nameA, e.nameB, svcOpts())
	if err != nil {
		t.Fatal(err)
	}

	p := New(Config{MaxInFlight: 2, MaxQueued: 64, TenantPending: 64})
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	s := p.Open("flood")

	const flood = 16
	results := make([]*compare.Result, flood)
	errs := make([]error, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Compare(ctx, e.store, e.nameA, e.nameB, svcOpts())
		}(i)
	}
	wg.Wait()

	for i := 0; i < flood; i++ {
		if errs[i] != nil {
			t.Fatalf("flood compare %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(scrubResult(results[i]), scrubResult(want)) {
			t.Errorf("flood compare %d diverges from oracle", i)
		}
	}
	if peak := p.PeakInFlight(); peak > 2 {
		t.Fatalf("peak in-flight %d exceeds MaxInFlight 2", peak)
	}
	st := s.Stats()
	if st.Submitted != flood || st.Completed != flood {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSubmitAsyncJobs covers the detached-job path at the service layer:
// verdicts on the reprocmp contract, and Plane.Close joining every job
// goroutine.
func TestSubmitAsyncJobs(t *testing.T) {
	e := newSvcEnv(t, 16<<10, 33)
	p := New(Config{TenantPending: 1})
	s := p.Open("async")

	job, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameB, Options: svcOpts()})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	if st.State != "done" || st.Verdict != "divergent" || st.ExitCode != 2 || st.DiffCount == 0 {
		t.Fatalf("job status: %+v", st)
	}
	if job.Result() == nil {
		t.Fatal("pair job without a result")
	}

	// Identical pair → clean verdict 0.
	clean, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameA, Options: svcOpts()})
	if err != nil {
		t.Fatal(err)
	}
	<-clean.Done()
	if st := clean.Status(); st.Verdict != "clean" || st.ExitCode != 0 {
		t.Fatalf("clean job status: %+v", st)
	}

	// Bad specs are rejected synchronously.
	if _, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, Options: svcOpts()}); err == nil {
		t.Error("one-name compare spec accepted")
	}
	if _, err := s.Submit(e.store, JobSpec{Kind: "bogus", A: e.nameA, B: e.nameB, Options: svcOpts()}); err == nil {
		t.Error("unknown kind accepted")
	}

	// A tenant at its quota is refused admission, with a price.
	hold, err := p.sched.reserve(s.tenant)
	if err != nil {
		t.Fatal(err)
	}
	var adm *AdmissionError
	if _, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameB, Options: svcOpts()}); !errors.As(err, &adm) {
		t.Errorf("submission over quota: got %v, want *AdmissionError", err)
	}
	p.sched.abort(hold)

	// An admitted job whose comparison fails is a failed job, not a
	// rejected one.
	missing, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: "gone/iter0001.rank000.ckpt", Options: svcOpts()})
	if err != nil {
		t.Fatal(err)
	}
	<-missing.Done()
	if st := missing.Status(); st.Verdict != "error" || st.Error == "" {
		t.Fatalf("failed job status: %+v", st)
	}

	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A closed plane rejects new jobs.
	if _, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameB, Options: svcOpts()}); err == nil {
		t.Error("submission on closed plane accepted")
	}

	// Every submission above counted Submitted once and then exactly one
	// outcome: two completed, one failed, and four that never ran (two bad
	// specs, the quota, the closed plane).
	got := s.Stats()
	if got.Submitted != got.Rejected+got.Failed+got.Completed {
		t.Errorf("Submitted %d != Rejected %d + Failed %d + Completed %d", got.Submitted, got.Rejected, got.Failed, got.Completed)
	}
	if got.Submitted != 7 || got.Rejected != 4 || got.Failed != 1 || got.Completed != 2 {
		t.Errorf("stats: %+v", got)
	}
}

// waitGoroutines waits for the goroutine count to return to base.
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
