// Differential-capture chaos: seeded fault schedules aimed at the CAS
// write path. The invariants mirror the comparison soak, shifted to
// capture time:
//
//  1. No silent loss: a capture under faults either succeeds or returns
//     an error — a torn pack or manifest write never yields a "clean"
//     capture.
//  2. No poisoned store: after any failed capture, the reopened CAS
//     replays consistently and a full Scrub re-hashes every referenced
//     extent clean — torn bytes are unreferenced holes, never a future
//     dedup hit. And it stays that way: the next life captures new
//     content past whatever the faults left in the pack and the index,
//     and the life after that opens and scrubs clean again (a torn index
//     append must cost its own entries, not every later one).
//  3. No false matches downstream: whenever both runs' captures land,
//     the differential comparison of the genuinely divergent pair never
//     reports Identical.
package chaos

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/framelog"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// diffSchedule derives a capture-targeted fault mix: torn pack writes on
// every seed, permanent CAS write failures on odd seeds, torn manifest
// writes on every third seed, a torn index append (mid-header, mid-entry
// or on an entry boundary, by seed) on half the seeds, plus background
// latency spikes.
func diffSchedule(seed uint64) []faults.Rule {
	rules := []faults.Rule{
		{Kind: faults.TornWrite, Name: "cas/pack", After: int(seed % 9), Count: 1, Keep: 64 + int(seed%4096)},
		{Kind: faults.LatencySpike, Prob: 0.25, Count: -1,
			Spike: pfs.Cost{Ops: 1, Bytes: 1 << 20}},
	}
	if seed%2 == 1 {
		rules = append(rules, faults.Rule{Kind: faults.PermanentWrite, Name: "cas/", After: int(seed % 13)})
	}
	if seed%3 == 2 {
		rules = append(rules, faults.Rule{Kind: faults.TornWrite, Name: ".cman", Count: 1, Keep: 32})
	}
	if seed%4 >= 2 {
		rules = append(rules, faults.Rule{Kind: faults.TornWrite, Name: "cas/index", After: int(seed % 3), Count: 1,
			Keep: []int{7, 16, 44, 49}[(seed/2+seed)%4]})
	}
	return rules
}

// casIndexMagic is the CAS index log's frame magic ("CIDX"), duplicated
// here so the soak can count what the schedules did to the file itself.
const casIndexMagic = 0x58444943

func TestChaosDiffCapture(t *testing.T) {
	sc := soakScale()
	pool := device.NewPool(2)
	defer pool.Close()
	opts := compare.Options{
		Epsilon:   1e-5,
		ChunkSize: sc.chunk,
		Exec:      pool,
		Degrade:   true,
	}
	hasher, err := errbound.NewHasher(errbound.Float32, opts.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	scrubHash := func(b []byte) (murmur3.Digest, error) { return hasher.HashChunk(b) }
	pert := synth.DefaultPerturb(99)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2 // far above the 1e-5 ε

	const nFields = 2
	fields := make([]ckpt.FieldSpec, nFields)
	for i, n := range []string{"x", "phi"} {
		fields[i] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(sc.elems)}
	}

	var trials, captureErrs, indexHoles int
	var injectedWrites int64
	for seed := uint64(0); seed < uint64(sc.seeds); seed++ {
		trials++
		store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
		if err != nil {
			t.Fatal(err)
		}
		cs, _, err := cas.Open(context.Background(), store)
		if err != nil {
			t.Fatal(err)
		}
		capture := func(c *compare.DiffCapturer, runID string, it int, data [][]byte) error {
			meta := ckpt.Meta{RunID: runID, Iteration: it, Rank: 0, Fields: fields}
			_, cerr := c.Capture(context.Background(), meta, data)
			return cerr
		}
		capA, err := compare.NewDiffCapturer(store, cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		capB, err := compare.NewDiffCapturer(store, cs, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Iteration 1 lands fault-free; iteration 2 captures under the
		// seeded schedule. Run B provably diverges from run A.
		base, diverged := synth.RunPair(sc.elems, nFields, int64(1000+seed), pert)
		if err := capture(capA, "runA", 1, base); err != nil {
			t.Fatalf("seed %d: fault-free capture failed: %v", seed, err)
		}
		if err := capture(capB, "runB", 1, base); err != nil {
			t.Fatalf("seed %d: fault-free capture failed: %v", seed, err)
		}
		evolved := make([][]byte, nFields)
		divergedNext := make([][]byte, nFields)
		for i := range base {
			evolved[i] = synth.PerturbF32(base[i], synth.PerturbConfig{
				Seed: int64(7 * (seed + uint64(i) + 1)), BlockElems: 1024,
				MagLo: 1e-3, MagHi: 1e-2, UntouchedFrac: 0.5, ChangedFrac: 0.05,
			})
			divergedNext[i] = synth.PerturbF32(evolved[i], pert)
			copy(divergedNext[i], diverged[i][:64]) // keep a guaranteed-divergent prefix
		}

		inj := faults.New(seed, diffSchedule(seed)...)
		store.SetFaultHook(inj)
		errA := capture(capA, "runA", 2, evolved)
		errB := capture(capB, "runB", 2, divergedNext)
		store.SetFaultHook(nil)
		st := inj.Stats()
		injectedWrites += st.WriteErrs
		if st.WriteOps == 0 {
			t.Fatalf("seed %d: fault hook never saw a write — the harness is vacuous", seed)
		}
		if h := store.OpenHandles(); h != 0 {
			t.Fatalf("seed %d: %d pfs handles leaked (errA=%v errB=%v)", seed, h, errA, errB)
		}

		// Invariant 2: whatever the schedule did, the reopened CAS must
		// replay cleanly and every referenced extent must re-hash clean.
		store.EvictAll()
		cs2, _, err := cas.Open(context.Background(), store)
		if err != nil {
			t.Fatalf("seed %d: CAS poisoned by faulted capture: %v (errA=%v errB=%v)", seed, err, errA, errB)
		}
		if _, err := cs2.Scrub(context.Background(), scrubHash); err != nil {
			t.Fatalf("seed %d: scrub found referenced corruption: %v (errA=%v errB=%v)", seed, err, errA, errB)
		}
		// ...and the life after the faults captures on, and the one after
		// that still opens: nothing the schedule left behind costs later
		// appends.
		replayed := cs2.Len()
		capNext, err := compare.NewDiffCapturer(store, cs2, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([][]byte, nFields)
		for i := range fresh {
			fresh[i] = synth.PerturbF32(evolved[i], synth.PerturbConfig{
				Seed: int64(31*(seed+1)) + int64(i), BlockElems: 1024,
				MagLo: 1e-3, MagHi: 1e-2, ChangedFrac: 0.5,
			})
		}
		if err := capture(capNext, "runA", 3, fresh); err != nil {
			t.Fatalf("seed %d: fault-free capture into the reopened CAS failed: %v (errA=%v errB=%v)", seed, err, errA, errB)
		}
		store.EvictAll()
		cs3, _, err := cas.Open(context.Background(), store)
		if err != nil {
			t.Fatalf("seed %d: CAS does not reopen after faulted capture + capture: %v (errA=%v errB=%v)", seed, err, errA, errB)
		}
		if _, err := cs3.Scrub(context.Background(), scrubHash); err != nil {
			t.Fatalf("seed %d: scrub after faulted capture + capture: %v", seed, err)
		}
		if cs3.Len() != cs2.Len() || cs3.Len() <= replayed {
			t.Fatalf("seed %d: the capture after the faults did not replay whole (%d digests replayed, %d after the capture, %d in the next life)",
				seed, replayed, cs2.Len(), cs3.Len())
		}
		rawIndex, err := os.ReadFile(filepath.Join(store.Root(), filepath.FromSlash(cas.IndexName)))
		if err != nil {
			t.Fatal(err)
		}
		damage, _ := framelog.Replay(rawIndex, casIndexMagic, func(int64, []byte) error { return nil })
		indexHoles += damage.Holes

		if errA != nil || errB != nil {
			captureErrs++
			continue
		}
		// Invariant 3: both captures landed, so the divergent pair must
		// never compare clean.
		nameA := ckpt.Name("runA", 2, 0)
		nameB := ckpt.Name("runB", 2, 0)
		res, err := compare.CompareDiff(context.Background(), store, cs2, nameA, nameB, opts)
		if err != nil {
			t.Fatalf("seed %d: fault-free comparison of captured pair failed: %v", seed, err)
		}
		if res.Identical() {
			t.Fatalf("seed %d: divergent pair compared identical after faulted capture", seed)
		}
		if res.DiffCount == 0 && !res.Degraded {
			t.Fatalf("seed %d: neither diffs nor degradation surfaced", seed)
		}
		if h := store.OpenHandles(); h != 0 {
			t.Fatalf("seed %d: %d pfs handles leaked after comparison", seed, h)
		}
	}
	t.Logf("chaos diff capture: %d trials, %d capture errors, %d write errors injected, %d index holes written past",
		trials, captureErrs, injectedWrites, indexHoles)
	// Coverage floor: the schedules must actually tear writes, and at
	// least one capture must surface an error (never silently absorb one).
	if injectedWrites == 0 {
		t.Fatal("no write errors injected across the soak — schedules are inert")
	}
	if captureErrs == 0 {
		t.Fatal("every faulted capture completed clean — the write path was never exercised")
	}
	if indexHoles == 0 {
		t.Fatal("no index append was torn and written past — the index schedule is inert")
	}
}
