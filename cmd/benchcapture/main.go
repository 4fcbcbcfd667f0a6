// Command benchcapture measures the differential-capture pipeline against
// classic full-container checkpointing across three divergence regimes.
//
// Each workload evolves two runs (A and B) over T iterations. Per field,
// a chunk-aligned *divergent* region separates B from A (stable across
// iterations — real reproducibility divergence is sticky), a *churn*
// region evolves identically in both runs every iteration (the shared
// physics both runs agree on), and the remainder is static. The same data
// is captured twice: classically (ckpt.WriteCheckpoint, one container per
// iteration) and differentially (compare.DiffCapturer over a shared CAS).
//
// Reported per level:
//
//   - capture bytes: full vs differential, the saved fraction, and the
//     CAS dedup hit rate — the paper's capture-affordability claim;
//   - cold path: a first-ever differential capture (empty CAS) vs one
//     full-container write of the same checkpoint — the overhead a run
//     pays before dedup has anything to hit;
//   - tree maintenance: incremental Merkle update (leaves touched, nodes
//     rehashed, wall per capture) vs a full rebuild of the final tree,
//     plus a golden re-check that the incremental root is bit-identical
//     to the rebuilt root;
//   - stage 2: read ops/bytes for classic CompareMerkle, CompareDiff
//     without a memo, and CompareDiff with a warmed CASMemo (full
//     pruning) — the with/without-CAS-pruning read-op comparison — and
//     CompareDiff again with windows of four chunks per side, the
//     multi-window row of the one-source plan.
//
// The run self-checks its own acceptance floors (≥40% capture bytes
// saved at low divergence, memoized reads strictly below unmemoized and
// classic, identical verdicts across all three comparison paths, roots
// matching the rebuild) and exits nonzero on any violation, so `make
// check` catches regressions, not just slowdowns.
//
// Usage:
//
//	benchcapture [-smoke] [-o out.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// Report is the checked-in benchmark artifact (BENCH_capture.json).
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Smoke       bool     `json:"smoke"`
	Workload    Workload `json:"workload"`
	Levels      []Level  `json:"levels"`
}

// Workload pins the synthetic-run shape shared by every level.
type Workload struct {
	FieldElems      int     `json:"field_elems"`
	Fields          int     `json:"fields"`
	ChunkBytes      int     `json:"chunk_bytes"`
	Epsilon         float64 `json:"epsilon"`
	Iterations      int     `json:"iterations"`
	Runs            int     `json:"runs"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
}

// Level is one divergence regime's measurements.
type Level struct {
	Name          string  `json:"name"`
	DivergentFrac float64 `json:"divergent_frac"`
	ChurnFrac     float64 `json:"churn_frac"`
	Capture       Capture `json:"capture"`
	Tree          Tree    `json:"tree"`
	Stage2        Stage2  `json:"stage2"`
}

// Capture compares write-side cost: classic containers vs the CAS.
type Capture struct {
	// FullBytes is every classic container write across runs × iterations.
	FullBytes int64 `json:"full_bytes"`
	// DiffBytes is every differential-capture write: pack, index,
	// manifests, and per-iteration Merkle metadata.
	DiffBytes      int64   `json:"diff_bytes"`
	BytesSavedFrac float64 `json:"bytes_saved_frac"`
	ChunksOffered  int     `json:"chunks_offered"`
	DedupHits      int     `json:"dedup_hits"`
	DedupHitRate   float64 `json:"dedup_hit_rate"`
	ChunksWritten  int     `json:"chunks_written"`
	PackBytes      int64   `json:"pack_bytes_written"`
	// ColdBytes is one differential capture into an empty CAS;
	// FullIterBytes is one classic container of the same checkpoint.
	ColdBytes     int64 `json:"cold_capture_bytes"`
	FullIterBytes int64 `json:"full_capture_bytes_per_iter"`
	// ColdOverheadFrac = ColdBytes/FullIterBytes - 1: the index +
	// manifest + metadata premium the no-dedup-yet path pays.
	ColdOverheadFrac float64 `json:"cold_overhead_frac"`
}

// Tree compares incremental Merkle maintenance against a full rebuild.
type Tree struct {
	WarmCaptures  int     `json:"warm_captures"`
	UpdatedLeaves int     `json:"updated_leaves"`
	RehashedNodes int     `json:"rehashed_nodes"`
	IncrementalMs float64 `json:"incremental_ms_per_capture"`
	RebuildMs     float64 `json:"full_rebuild_ms"`
	// RootsMatch re-checks the golden property on this workload: the
	// incrementally maintained roots equal a from-scratch rebuild's.
	RootsMatch bool `json:"roots_match_rebuild"`
}

// Stage2 compares read-side scheduling for the final-iteration pair.
type Stage2 struct {
	Classic    S2Side `json:"classic"`
	DiffNoMemo S2Side `json:"diff_no_memo"`
	DiffMemo   S2Side `json:"diff_memo"`
	// DiffWindowed is DiffNoMemo at SliceBytes = windowChunks chunks, so
	// the pack's candidates span several windows.
	DiffWindowed S2Side `json:"diff_no_memo_windowed"`
}

// windowChunks is the chunks per side of DiffWindowed's windows.
const windowChunks = 4

// S2Side is one comparison strategy's cold-cache read profile.
type S2Side struct {
	ReadOps    int64   `json:"read_ops"`
	ReadBytes  int64   `json:"read_bytes"`
	Candidates int     `json:"candidate_chunks"`
	CASPruned  int     `json:"cas_pruned_chunks"`
	Changed    int     `json:"changed_chunks"`
	Diffs      int64   `json:"diffs"`
	VirtualMs  float64 `json:"virtual_ms"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcapture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		smoke = fs.Bool("smoke", false, "tiny sizes; validates the runner, numbers not comparable")
		out   = fs.String("o", "", "output file (empty writes to stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := measureAll(*smoke)
	if err != nil {
		fmt.Fprintln(stderr, "benchcapture:", err)
		return 1
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchcapture:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchcapture:", err)
		return 1
	}
	return 0
}

// levels are the divergence regimes: (divergent, churn) fractions of each
// field. Low is the paper's sweet spot — runs that mostly agree.
var levels = []struct {
	name       string
	div, churn float64
}{
	{"low", 0.02, 0.10},
	{"medium", 0.10, 0.30},
	{"high", 0.30, 0.60},
}

func measureAll(smoke bool) (*Report, error) {
	ctx := context.Background()
	elems, chunk, iters := 1<<19, 64<<10, 6
	if smoke {
		elems, chunk, iters = 8<<10, 4<<10, 4
	}
	const (
		nFields = 3
		eps     = 1e-5
	)
	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Smoke:       smoke,
		Workload: Workload{
			FieldElems:      elems,
			Fields:          nFields,
			ChunkBytes:      chunk,
			Epsilon:         eps,
			Iterations:      iters,
			Runs:            2,
			CheckpointBytes: int64(elems) * 4 * nFields,
		},
	}
	dir, err := os.MkdirTemp("", "benchcapture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := compare.Options{Epsilon: eps, ChunkSize: chunk, Exec: device.NewParallel(runtime.GOMAXPROCS(0))}

	for _, lv := range levels {
		res, err := measureLevel(ctx, filepath.Join(dir, lv.name), lv.name, lv.div, lv.churn, elems, nFields, iters, opts)
		if err != nil {
			return nil, fmt.Errorf("level %s: %w", lv.name, err)
		}
		rep.Levels = append(rep.Levels, res)
	}
	return rep, selfCheck(rep)
}

// workload synthesizes both runs' data for one level. Regions are
// chunk-aligned so the nominal fractions land on dedup boundaries.
type workload struct {
	base                 [][]byte // per-field static baseline
	bDiv                 [][]byte // per-field divergent content for run B
	divBytes, churnBytes int
}

func newWorkload(elems, nFields, chunk int, div, churn float64) *workload {
	chunkElems := chunk / 4
	align := func(frac float64) int {
		n := int(frac * float64(elems))
		c := (n + chunkElems - 1) / chunkElems
		if c*chunkElems > elems {
			return elems
		}
		return c * chunkElems
	}
	w := &workload{divBytes: 4 * align(div), churnBytes: 4 * align(churn)}
	if w.divBytes+w.churnBytes > 4*elems {
		w.churnBytes = 4*elems - w.divBytes
	}
	for fi := 0; fi < nFields; fi++ {
		base := synth.FieldF32(elems, int64(100+fi))
		w.base = append(w.base, base)
		w.bDiv = append(w.bDiv, perturb(base[:w.divBytes], int64(555+fi)))
	}
	return w
}

// perturb rewrites a chunk-aligned region with deviations far above ε, so
// every chunk it covers changes its quantized leaf digest.
func perturb(region []byte, seed int64) []byte {
	return synth.PerturbF32(region, synth.PerturbConfig{
		Seed: seed, BlockElems: 256,
		MagLo: 1e-3, MagHi: 1e-2, ChangedFrac: 0.5,
	})
}

// iter returns both runs' field data at iteration t: the churn region is
// re-perturbed identically for A and B, the divergent region separates B.
func (w *workload) iter(t int) (a, b [][]byte) {
	for fi, base := range w.base {
		af := append([]byte(nil), base...)
		if w.churnBytes > 0 {
			ch := perturb(base[w.divBytes:w.divBytes+w.churnBytes], int64(10_000*t+fi))
			copy(af[w.divBytes:], ch)
		}
		bf := append([]byte(nil), af...)
		copy(bf, w.bDiv[fi])
		a = append(a, af)
		b = append(b, bf)
	}
	return a, b
}

func measureLevel(ctx context.Context, dir, name string, div, churn float64, elems, nFields, iters int, opts compare.Options) (Level, error) {
	lv := Level{Name: name, DivergentFrac: div, ChurnFrac: churn}
	w := newWorkload(elems, nFields, opts.ChunkSize, div, churn)

	fields := make([]ckpt.FieldSpec, nFields)
	for i := range fields {
		fields[i] = ckpt.FieldSpec{Name: fmt.Sprintf("f%d", i), DType: errbound.Float32, Count: int64(elems)}
	}
	newStore := func(sub string) (*pfs.Store, error) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return pfs.NewStore(d, pfs.LustreModel())
	}
	storeFull, err := newStore("full")
	if err != nil {
		return lv, err
	}
	storeDiff, err := newStore("diff")
	if err != nil {
		return lv, err
	}
	cs, _, err := cas.Open(ctx, storeDiff)
	if err != nil {
		return lv, err
	}
	capA, err := compare.NewDiffCapturer(storeDiff, cs, opts)
	if err != nil {
		return lv, err
	}
	capB, err := compare.NewDiffCapturer(storeDiff, cs, opts)
	if err != nil {
		return lv, err
	}

	// Capture every iteration both ways; A before B so B's shared regions
	// dedup against A's freshly written chunks.
	var firstA [][]byte
	var treeWall time.Duration
	for t := 1; t <= iters; t++ {
		dataA, dataB := w.iter(t)
		if t == 1 {
			firstA = dataA
		}
		for _, side := range []struct {
			runID string
			cap   *compare.DiffCapturer
			data  [][]byte
		}{{"runA", capA, dataA}, {"runB", capB, dataB}} {
			meta := ckpt.Meta{RunID: side.runID, Iteration: t, Rank: 0, Fields: fields}
			cost, err := ckpt.WriteCheckpoint(storeFull, meta, side.data)
			if err != nil {
				return lv, err
			}
			lv.Capture.FullBytes += cost.Bytes
			if t == 1 && side.runID == "runA" {
				lv.Capture.FullIterBytes = cost.Bytes
			}
			rep, err := side.cap.Capture(ctx, meta, side.data)
			if err != nil {
				return lv, err
			}
			lv.Capture.DiffBytes += rep.Cost.Bytes
			lv.Capture.ChunksOffered += rep.Stats.Chunks
			lv.Capture.DedupHits += rep.Stats.DedupHits
			lv.Capture.ChunksWritten += rep.Stats.ChunksWritten
			lv.Capture.PackBytes += rep.Stats.BytesWritten
			if !rep.Cold {
				lv.Tree.WarmCaptures++
				lv.Tree.UpdatedLeaves += rep.UpdatedLeaves
				lv.Tree.RehashedNodes += rep.RehashedNodes
				treeWall += rep.TreeWall
			}
		}
	}
	lv.Capture.BytesSavedFrac = 1 - float64(lv.Capture.DiffBytes)/float64(lv.Capture.FullBytes)
	lv.Capture.DedupHitRate = float64(lv.Capture.DedupHits) / float64(lv.Capture.ChunksOffered)
	if lv.Tree.WarmCaptures > 0 {
		lv.Tree.IncrementalMs = float64(treeWall) / float64(time.Millisecond) / float64(lv.Tree.WarmCaptures)
	}

	// Cold path: the same first checkpoint into an empty CAS.
	storeCold, err := newStore("cold")
	if err != nil {
		return lv, err
	}
	csCold, _, err := cas.Open(ctx, storeCold)
	if err != nil {
		return lv, err
	}
	capCold, err := compare.NewDiffCapturer(storeCold, csCold, opts)
	if err != nil {
		return lv, err
	}
	coldRep, err := capCold.Capture(ctx, ckpt.Meta{RunID: "runA", Iteration: 1, Rank: 0, Fields: fields}, firstA)
	if err != nil {
		return lv, err
	}
	lv.Capture.ColdBytes = coldRep.Cost.Bytes
	lv.Capture.ColdOverheadFrac = float64(lv.Capture.ColdBytes)/float64(lv.Capture.FullIterBytes) - 1

	// Golden re-check + rebuild timing on run A's final tree: the
	// incrementally maintained metadata on disk must match a from-scratch
	// rebuild of the manifest's leaf digests, bit for bit.
	nameA := ckpt.Name("runA", iters, 0)
	nameB := ckpt.Name("runB", iters, 0)
	manA, _, _, err := cas.LoadManifest(ctx, storeDiff, nameA, nil)
	if err != nil {
		return lv, err
	}
	metaA, _, _, err := compare.LoadMetadata(ctx, storeDiff, nameA)
	if err != nil {
		return lv, err
	}
	sw := time.Now()
	lv.Tree.RootsMatch = true
	for fi := range manA.Fields {
		fm := &manA.Fields[fi]
		t, err := merkle.New(fm.Bytes(), manA.ChunkSize, fm.Digests)
		if err != nil {
			return lv, err
		}
		t.Build(opts.Exec)
		if t.Root() != metaA.Fields[fi].Tree.Root() {
			lv.Tree.RootsMatch = false
		}
	}
	lv.Tree.RebuildMs = float64(time.Since(sw)) / float64(time.Millisecond)

	// Stage 2 on the final pair, cold cache each time. Classic needs the
	// containers' Merkle metadata built first (the diff store saved its
	// own at capture time).
	for _, n := range []string{nameA, nameB} {
		if _, _, err := compare.BuildAndSave(ctx, storeFull, n, opts); err != nil {
			return lv, err
		}
	}
	measure := func(store *pfs.Store, cmp func() (*compare.Result, error)) (S2Side, error) {
		store.EvictAll()
		ops0, bytes0 := store.ReadStats()
		res, err := cmp()
		if err != nil {
			return S2Side{}, err
		}
		ops1, bytes1 := store.ReadStats()
		return S2Side{
			ReadOps:    ops1 - ops0,
			ReadBytes:  bytes1 - bytes0,
			Candidates: res.CandidateChunks,
			CASPruned:  res.CASPrunedChunks,
			Changed:    res.ChangedChunks,
			Diffs:      res.DiffCount,
			VirtualMs:  float64(res.VirtualElapsed()) / float64(time.Millisecond),
		}, nil
	}
	lv.Stage2.Classic, err = measure(storeFull, func() (*compare.Result, error) {
		return compare.CompareMerkle(ctx, storeFull, nameA, nameB, opts)
	})
	if err != nil {
		return lv, err
	}
	lv.Stage2.DiffNoMemo, err = measure(storeDiff, func() (*compare.Result, error) {
		return compare.CompareDiff(ctx, storeDiff, cs, nameA, nameB, opts)
	})
	if err != nil {
		return lv, err
	}
	memoOpts := opts
	memoOpts.Memo = compare.NewCASMemo(opts.Epsilon)
	if _, err := compare.CompareDiff(ctx, storeDiff, cs, nameA, nameB, memoOpts); err != nil {
		return lv, err // warm the memo, unmeasured
	}
	lv.Stage2.DiffMemo, err = measure(storeDiff, func() (*compare.Result, error) {
		return compare.CompareDiff(ctx, storeDiff, cs, nameA, nameB, memoOpts)
	})
	if err != nil {
		return lv, err
	}
	windowed := opts
	windowed.SliceBytes = windowChunks * opts.ChunkSize
	lv.Stage2.DiffWindowed, err = measure(storeDiff, func() (*compare.Result, error) {
		return compare.CompareDiff(ctx, storeDiff, cs, nameA, nameB, windowed)
	})
	if err != nil {
		return lv, err
	}
	return lv, nil
}

// selfCheck enforces the acceptance floors so `make check` fails on a
// capture-pipeline regression, not just a slower number.
func selfCheck(rep *Report) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for _, lv := range rep.Levels {
		c, s := lv.Capture, lv.Stage2
		if !lv.Tree.RootsMatch {
			fail("%s: incremental Merkle root diverged from full rebuild", lv.Name)
		}
		if s.Classic.Diffs == 0 {
			fail("%s: divergent workload compared clean", lv.Name)
		}
		if s.DiffNoMemo.Diffs != s.Classic.Diffs || s.DiffMemo.Diffs != s.Classic.Diffs ||
			s.DiffNoMemo.Changed != s.Classic.Changed || s.DiffMemo.Changed != s.Classic.Changed {
			fail("%s: comparison paths disagree: classic %d/%d, diff %d/%d, memo %d/%d diffs/changed",
				lv.Name, s.Classic.Diffs, s.Classic.Changed,
				s.DiffNoMemo.Diffs, s.DiffNoMemo.Changed, s.DiffMemo.Diffs, s.DiffMemo.Changed)
		}
		if s.DiffWindowed.Diffs != s.Classic.Diffs || s.DiffWindowed.Changed != s.Classic.Changed ||
			s.DiffWindowed.ReadBytes < s.DiffNoMemo.ReadBytes {
			fail("%s: windowed differential comparison: %d diffs, %d changed, %d bytes; one window: %d, %d, %d",
				lv.Name, s.DiffWindowed.Diffs, s.DiffWindowed.Changed, s.DiffWindowed.ReadBytes,
				s.DiffNoMemo.Diffs, s.DiffNoMemo.Changed, s.DiffNoMemo.ReadBytes)
		}
		if s.DiffMemo.CASPruned != s.DiffMemo.Candidates {
			fail("%s: warmed memo pruned %d of %d candidates", lv.Name, s.DiffMemo.CASPruned, s.DiffMemo.Candidates)
		}
		if s.DiffMemo.ReadOps >= s.DiffNoMemo.ReadOps {
			fail("%s: CAS pruning did not reduce read ops: %d memoized vs %d", lv.Name, s.DiffMemo.ReadOps, s.DiffNoMemo.ReadOps)
		}
		if c.ColdOverheadFrac > 0.25 || c.ColdOverheadFrac < -0.05 {
			fail("%s: cold capture overhead %.1f%% outside [-5%%, 25%%]", lv.Name, 100*c.ColdOverheadFrac)
		}
		if lv.Name == "low" {
			if c.BytesSavedFrac < 0.40 {
				fail("low: capture bytes saved %.1f%% below the 40%% floor", 100*c.BytesSavedFrac)
			}
			if s.DiffMemo.ReadOps >= s.Classic.ReadOps {
				fail("low: memoized differential reads (%d ops) not below classic (%d ops)", s.DiffMemo.ReadOps, s.Classic.ReadOps)
			}
		}
	}
	if len(errs) > 0 {
		msg := "self-check failed:"
		for _, e := range errs {
			msg += "\n  " + e.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
