// Package chaos is the soak harness for the degradation ladder: it runs
// N-run group comparisons under deterministic seeded fault schedules
// (internal/faults) across both topologies and asserts the three
// robustness invariants end to end:
//
//  1. No leaks: every trial returns with zero open pfs handles, and the
//     goroutine count settles back to the post-warmup baseline.
//  2. No false matches: a group containing a genuinely divergent member
//     must never report Reproducible() — under any fault schedule the
//     divergence is either detected (DiffCount > 0) or the comparison is
//     visibly degraded, never silently clean.
//  3. No silent degradation: whenever a trial absorbs a fault on the
//     degraded path, the report says so (Degraded/UnverifiedChunks),
//     and a fault schedule that exhausts the retry budget surfaces an
//     error rather than a verdict.
//
// The package contains only test files on purpose: chaos is a property
// of the production packages, not a library.
//
// Scale is env-gated: the default run (part of `go test ./...` and the
// -race gate in `make check`) soaks chaosSeeds seeds at small sizes;
// CHAOS_FULL=1 (the `make chaos` target) widens the group, the data, and
// the seed range.
package chaos

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// chaosSeeds is the smoke-scale seed count; acceptance floor is 8.
const chaosSeeds = 8

// scale describes one soak configuration.
type scale struct {
	seeds int // fault-schedule seeds per topology
	runs  int // group size (baseline + runs-1 members)
	elems int // float32 elements per field
	chunk int
}

func soakScale() scale {
	if os.Getenv("CHAOS_FULL") == "1" {
		return scale{seeds: 24, runs: 5, elems: 64 << 10, chunk: 4 << 10}
	}
	return scale{seeds: chaosSeeds, runs: 3, elems: 16 << 10, chunk: 4 << 10}
}

// group is a seeded store with one baseline, n-1 members, and exactly one
// genuinely divergent member (the last run).
type group struct {
	store    *pfs.Store
	baseline string
	runs     []string
}

// seedGroup writes nRuns checkpoints: runs 0..n-2 are bit-identical to
// the baseline; the last run is perturbed well above ε so it provably
// diverges. Metadata is built fault-free before the hook is attached.
func seedGroup(t *testing.T, sc scale, opts compare.Options) group {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const nFields = 2
	pert := synth.DefaultPerturb(99)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2 // far above the 1e-5 ε
	base, diverged := synth.RunPair(sc.elems, nFields, 1234, pert)
	fields := make([]ckpt.FieldSpec, nFields)
	for i, n := range []string{"x", "phi"} {
		fields[i] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(sc.elems)}
	}
	g := group{store: store}
	for r := 0; r < sc.runs; r++ {
		runID := fmt.Sprintf("run%d", r)
		data := base
		if r == sc.runs-1 {
			data = diverged
		}
		meta := ckpt.Meta{RunID: runID, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			t.Fatal(err)
		}
		name := ckpt.Name(runID, 10, 0)
		m, _, err := compare.Build(fields, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, name, m); err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			g.baseline = name
		} else {
			g.runs = append(g.runs, name)
		}
	}
	store.EvictAll()
	return g
}

// schedule derives a deterministic fault mix from the seed. Transient
// errors stay under the default retry budget (the engine re-runs a step
// MaxAttempts=3 times and the compare layer retries reads besides), so a
// schedule is absorbable by design; permanent rules on odd seeds push
// trials onto the degraded or abort path.
func schedule(seed uint64) []faults.Rule {
	rules := []faults.Rule{
		{Kind: faults.TransientRead, After: int(seed % 7), Count: 2},
		{Kind: faults.LatencySpike, Prob: 0.25, Count: -1,
			Spike: pfs.Cost{Ops: 1, Bytes: 1 << 20}},
		{Kind: faults.BitFlip, After: int(seed % 11), Count: int(seed%3) + 1},
	}
	if seed%2 == 1 {
		// Permanent failure scoped to the divergent member's files: lands
		// either in stage 1 (clean abort) or stage 2 (metadata-only
		// degraded verdict) depending on where the op counter falls.
		rules = append(rules, faults.Rule{
			Kind: faults.PermanentRead, Name: "/iter", After: int(20 + seed%17),
		})
	}
	return rules
}

// outcome summarizes one trial for the soak-level coverage asserts.
type outcome struct {
	aborted      bool
	degraded     bool
	errsInjected int64
}

// trial runs one seeded group comparison and checks the invariants.
func trial(t *testing.T, g group, topo compare.Topology, seed uint64, opts compare.Options) outcome {
	t.Helper()
	inj := faults.New(seed, schedule(seed)...)
	g.store.SetFaultHook(inj)
	defer g.store.SetFaultHook(nil)
	rep, err := compare.GroupCompare(context.Background(), g.store, g.baseline, g.runs, topo, opts)
	if h := g.store.OpenHandles(); h != 0 {
		t.Fatalf("seed %d: %d pfs handles leaked (err=%v)", seed, h, err)
	}
	if st := inj.Stats(); st.ReadOps == 0 {
		t.Fatalf("seed %d: fault hook never saw a read — the harness is vacuous", seed)
	}
	out := outcome{errsInjected: inj.Stats().ReadErrs + inj.Stats().WriteErrs}
	if err != nil {
		// Abort path: the schedule exhausted a budget or hit a permanent
		// fault outside the degradable stage. That is a legitimate
		// outcome — the invariant is that it is an error, not a verdict.
		out.aborted = true
		return out
	}
	out.degraded = rep.Degraded
	// Zero false matches: the last member provably diverges, so a clean
	// reproducibility claim is a lie under every schedule.
	if rep.Reproducible() {
		t.Fatalf("seed %d topo %v: divergent group reported reproducible (degraded=%v unverified=%d)",
			seed, topo, rep.Degraded, rep.UnverifiedChunks)
	}
	// No silent degradation: an undegraded report must have found the
	// divergence outright.
	if !rep.Degraded {
		var diffs int64
		for i := range rep.Pairs {
			diffs += rep.Pairs[i].Result.DiffCount
		}
		if diffs == 0 {
			t.Fatalf("seed %d topo %v: neither diffs nor degradation surfaced", seed, topo)
		}
	}
	// Internal consistency: unverified chunks imply the degraded flag.
	for i := range rep.Pairs {
		r := rep.Pairs[i].Result
		if r.UnverifiedChunks > 0 && !r.Degraded {
			t.Fatalf("seed %d: pair %d has %d unverified chunks but no degraded flag",
				seed, i, r.UnverifiedChunks)
		}
	}
	g.store.EvictAll()
	return out
}

// waitGoroutines polls until the goroutine count settles back to at most
// base; background pipeline goroutines can linger briefly after a trial.
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

// TestChaosSoak is the main harness: seeds × topologies, degrade on.
func TestChaosSoak(t *testing.T) {
	sc := soakScale()
	// The soak's own ring, shared by every trial.
	ring := aio.NewUring(256)
	pool := device.NewPool(2)
	defer pool.Close()
	opts := compare.Options{
		Epsilon:   1e-5,
		ChunkSize: sc.chunk,
		Exec:      pool,
		Backend:   ring,
		Degrade:   true,
	}
	g := seedGroup(t, sc, opts)

	// Warm up once fault-free so shared worker pools (ring backend,
	// executor) spin up before the goroutine baseline is taken.
	if _, err := compare.GroupCompare(context.Background(), g.store, g.baseline, g.runs,
		compare.TopologyStar, opts); err != nil {
		t.Fatalf("fault-free warmup failed: %v", err)
	}
	g.store.EvictAll()
	base := runtime.NumGoroutine()

	var trials, aborted, degraded int
	var injected int64
	for _, topo := range []compare.Topology{compare.TopologyStar, compare.TopologyAllPairs} {
		for seed := uint64(0); seed < uint64(sc.seeds); seed++ {
			out := trial(t, g, topo, seed, opts)
			trials++
			injected += out.errsInjected
			if out.aborted {
				aborted++
			}
			if out.degraded {
				degraded++
			}
		}
	}
	t.Logf("chaos soak: %d trials, %d aborted, %d degraded, %d errors injected",
		trials, aborted, degraded, injected)
	// Coverage floor: the soak must actually exercise the fault machinery
	// and land at least one trial on a non-clean path.
	if injected == 0 {
		t.Fatal("no errors injected across the soak — schedules are inert")
	}
	if aborted+degraded == 0 {
		t.Fatal("every trial completed clean — the ladder was never exercised")
	}
	waitGoroutines(t, base)
}

// TestChaosStrictAborts pins the strict-mode contract under the same
// schedules: with Degrade off, a permanent fault must surface as an
// error, never as a degraded-looking report.
func TestChaosStrictAborts(t *testing.T) {
	sc := soakScale()
	pool := device.NewPool(2)
	defer pool.Close()
	opts := compare.Options{
		Epsilon:   1e-5,
		ChunkSize: sc.chunk,
		Exec:      pool,
	}
	g := seedGroup(t, sc, opts)
	for seed := uint64(1); seed < uint64(sc.seeds); seed += 2 { // permanent-fault seeds
		inj := faults.New(seed, schedule(seed)...)
		g.store.SetFaultHook(inj)
		rep, err := compare.GroupCompare(context.Background(), g.store, g.baseline, g.runs,
			compare.TopologyStar, opts)
		g.store.SetFaultHook(nil)
		if h := g.store.OpenHandles(); h != 0 {
			t.Fatalf("seed %d: %d pfs handles leaked", seed, h)
		}
		if err == nil && rep.Degraded {
			t.Fatalf("seed %d: strict mode produced a degraded report instead of an error", seed)
		}
		g.store.EvictAll()
	}
}
