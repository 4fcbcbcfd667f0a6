package compare

import (
	"context"
	"testing"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/synth"
)

// threeRunDiffEnv captures a baseline and two perturbed runs into one
// shared CAS and returns their checkpoint names.
func threeRunDiffEnv(t *testing.T, opts Options) (*diffEnv, []string) {
	t.Helper()
	env := newDiffEnv(t, opts)
	const elems = 64 << 10
	fields := f32Fields([]string{"x", "vx", "phi"}, elems)
	base := make([][]byte, len(fields))
	for i := range base {
		base[i] = synth.FieldF32(elems, int64(40+i))
	}
	names := make([]string, 3)
	for ri, runID := range []string{"runA", "runB", "runC"} {
		data := base
		if ri > 0 {
			data = make([][]byte, len(base))
			for i := range base {
				data[i] = synth.PerturbF32(base[i], synth.DefaultPerturb(int64(10*ri+i)))
			}
		}
		names[ri], _ = env.capture(t, runID, 10, fields, data)
	}
	env.store.EvictAll()
	return env, names
}

// TestGroupCompareDiffMatchesPairwise: the grouped differential
// comparison must report exactly what sequential pairwise CompareDiff
// calls report, while issuing fewer store read operations (shared
// members and deduplicated extents are fetched once for the group).
func TestGroupCompareDiffMatchesPairwise(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env, names := threeRunDiffEnv(t, opts)

	ops0, _ := env.store.ReadStats()
	rep, err := GroupCompareDiff(context.Background(), env.store, env.cs, names[0], names[1:], TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops1, _ := env.store.ReadStats()
	groupOps := ops1 - ops0

	if len(rep.Pairs) != 2 {
		t.Fatalf("star over 3 members has %d pairs, want 2", len(rep.Pairs))
	}
	var pairwiseOps int64
	for pi, pr := range rep.Pairs {
		if pr.Result.Method != "merkle-cas-group" {
			t.Errorf("pair %d Method = %q", pi, pr.Result.Method)
		}
		env.store.EvictAll()
		po0, _ := env.store.ReadStats()
		solo, err := CompareDiff(context.Background(), env.store, env.cs, pr.NameA, pr.NameB, opts)
		if err != nil {
			t.Fatal(err)
		}
		po1, _ := env.store.ReadStats()
		pairwiseOps += po1 - po0
		assertSameDiffs(t, diffsToMap(solo.Diffs), diffsToMap(pr.Result.Diffs), pr.NameB)
		if pr.Result.DiffCount != solo.DiffCount || pr.Result.ChangedChunks != solo.ChangedChunks {
			t.Errorf("pair %d: group found %d diffs / %d changed, pairwise %d / %d",
				pi, pr.Result.DiffCount, pr.Result.ChangedChunks, solo.DiffCount, solo.ChangedChunks)
		}
		if pr.Result.CandidateChunks != solo.CandidateChunks {
			t.Errorf("pair %d: CandidateChunks %d vs pairwise %d",
				pi, pr.Result.CandidateChunks, solo.CandidateChunks)
		}
	}
	if rep.Reproducible() {
		t.Error("perturbed group reported reproducible")
	}
	if groupOps >= pairwiseOps {
		t.Errorf("group comparison took %d read ops, pairwise took %d — sharing saved nothing", groupOps, pairwiseOps)
	}
}

// TestGroupCompareDiffMemoPrunesAndSurvivesPackFailure: a memo warmed by
// one group comparison prunes every candidate of the next — which then
// completes clean even when every pack read fails, while the unmemoized
// control degrades its surviving candidates to Unverified.
func TestGroupCompareDiffMemoPrunesAndSurvivesPackFailure(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env, names := threeRunDiffEnv(t, opts)
	memo := NewCASMemo(1e-5)
	opts.Memo = memo

	rep1, err := GroupCompareDiff(context.Background(), env.store, env.cs, names[0], names[1:], TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Len() == 0 {
		t.Fatal("clean group comparison left the memo empty")
	}
	for pi, pr := range rep1.Pairs {
		if pr.Result.CASPrunedChunks != 0 {
			t.Errorf("pair %d: cold memo pruned %d chunks", pi, pr.Result.CASPrunedChunks)
		}
	}

	// Every pack read now fails; the memoized group never schedules one.
	opts.Backend = nameFailBackend{inner: aio.Mmap{}, match: cas.PackName, err: errStorage}
	opts.Degrade = true
	env.store.EvictAll()
	rep2, err := GroupCompareDiff(context.Background(), env.store, env.cs, names[0], names[1:], TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pi, pr := range rep2.Pairs {
		r1 := rep1.Pairs[pi].Result
		if pr.Result.CASPrunedChunks != pr.Result.CandidateChunks || pr.Result.CandidateChunks == 0 {
			t.Errorf("pair %d: pruned %d of %d candidates, want all",
				pi, pr.Result.CASPrunedChunks, pr.Result.CandidateChunks)
		}
		if pr.Result.Degraded || pr.Result.UnverifiedChunks != 0 {
			t.Errorf("pair %d: pruned chunks reported unverified: Degraded=%v Unverified=%d",
				pi, pr.Result.Degraded, pr.Result.UnverifiedChunks)
		}
		assertSameDiffs(t, diffsToMap(r1.Diffs), diffsToMap(pr.Result.Diffs), pr.NameB)
		if pr.Result.DiffCount != r1.DiffCount || pr.Result.ChangedChunks != r1.ChangedChunks {
			t.Errorf("pair %d: replay found %d diffs / %d changed, clean run %d / %d",
				pi, pr.Result.DiffCount, pr.Result.ChangedChunks, r1.DiffCount, r1.ChangedChunks)
		}
	}
	if rep2.Degraded {
		t.Error("fully memoized group marked degraded")
	}

	// Control: no memo, same failure — every surviving candidate degrades.
	opts.Memo = nil
	env.store.EvictAll()
	rep3, err := GroupCompareDiff(context.Background(), env.store, env.cs, names[0], names[1:], TopologyStar, opts)
	if err != nil {
		t.Fatalf("degrade mode must absorb the pack failure: %v", err)
	}
	if !rep3.Degraded {
		t.Fatal("unmemoized control not degraded")
	}
	for pi, pr := range rep3.Pairs {
		if pr.Result.UnverifiedChunks != pr.Result.CandidateChunks || pr.Result.CandidateChunks == 0 {
			t.Errorf("pair %d: Unverified=%d Candidates=%d, want all candidates unverified",
				pi, pr.Result.UnverifiedChunks, pr.Result.CandidateChunks)
		}
		if pr.Result.Identical() {
			t.Errorf("pair %d: degraded pair reported identical", pi)
		}
	}
	if rep3.Reproducible() {
		t.Error("degraded group reported reproducible")
	}
}

// TestGroupCompareDiffAllPairs exercises the all-pairs topology,
// including the run-vs-run pair that never touches the baseline.
func TestGroupCompareDiffAllPairs(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env, names := threeRunDiffEnv(t, opts)
	rep, err := GroupCompareDiff(context.Background(), env.store, env.cs, names[0], names[1:], TopologyAllPairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != 3 {
		t.Fatalf("all-pairs over 3 members has %d pairs, want 3", len(rep.Pairs))
	}
	for _, pr := range rep.Pairs {
		env.store.EvictAll()
		solo, err := CompareDiff(context.Background(), env.store, env.cs, pr.NameA, pr.NameB, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDiffs(t, diffsToMap(solo.Diffs), diffsToMap(pr.Result.Diffs), pr.NameA+"/"+pr.NameB)
	}
}
