package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/catalog"
	"repro/internal/hacc"
	"repro/internal/jacobi"
	"repro/internal/mpi"
)

// TestFullLifecycle drives the complete production workflow across both
// bundled applications: multi-rank simulation, asynchronous two-tier
// capture, metadata construction, history comparison, divergence
// analysis, state-evolution profiling, provenance manifests, and finally
// compaction of old history — confirming everything stays consistent at
// each stage.
func TestFullLifecycle(t *testing.T) {
	pfsTier, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	localTier, err := repro.NewStore(t.TempDir(), repro.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-7, ChunkSize: 4 << 10}

	// --- Stage 1: two nondeterministic multi-rank cosmology runs.
	const (
		particles = 600
		ranks     = 2
		steps     = 10
		every     = 5
	)
	for i, runID := range []string{"lc1", "lc2"} {
		cfg := hacc.DefaultConfig(particles)
		cfg.Grid = 16
		cfg.Box = 16
		cfg.Nondet = true
		cfg.NondetSeed = int64(i + 1)
		ckpter := repro.NewCheckpointer(localTier, pfsTier, 2)
		err := mpi.Run(ranks, func(r *mpi.Rank) error {
			sim, err := hacc.NewRankSim(cfg, r)
			if err != nil {
				return err
			}
			for s := 1; s <= steps; s++ {
				if err := sim.Step(); err != nil {
					return err
				}
				if s%every == 0 {
					if err := sim.Capture(ckpter, runID); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpter.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// --- Stage 2: metadata + provenance manifests.
	for _, runID := range []string{"lc1", "lc2"} {
		names, err := repro.History(pfsTier, runID)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != (steps/every)*ranks {
			t.Fatalf("%s history = %v", runID, names)
		}
		for _, n := range names {
			if _, _, err := repro.BuildAndSave(context.Background(), pfsTier, n, opts); err != nil {
				t.Fatal(err)
			}
		}
		m, err := catalog.Scan(context.Background(), pfsTier, runID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := catalog.Save(pfsTier, m); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := catalog.Load(context.Background(), pfsTier, "lc1")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := catalog.Load(context.Background(), pfsTier, "lc2")
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := catalog.SameProvenance(m1, m2); !ok {
		t.Fatalf("provenance mismatch: %s", why)
	}

	// --- Stage 3: history comparison (paired per rank automatically).
	report, err := repro.CompareHistories(context.Background(), pfsTier, "lc1", "lc2", repro.MethodMerkle, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Pairs) != (steps/every)*ranks {
		t.Fatalf("compared %d pairs", len(report.Pairs))
	}
	if report.Reproducible() {
		t.Fatal("nondeterministic runs reported reproducible at 1e-7")
	}

	// --- Stage 4: divergence analysis on the first divergent pair.
	fd := report.FirstDivergence
	an, err := repro.Analyze(context.Background(), pfsTier, fd.NameA, fd.NameB)
	if err != nil {
		t.Fatal(err)
	}
	var observed int64
	for i := range an.Fields {
		observed += an.Fields[i].CountAbove(opts.Epsilon)
	}
	if observed == 0 {
		t.Error("analysis sees no divergence where the comparator found some")
	}

	// --- Stage 5: per-run evolution profile from metadata only.
	evo, err := repro.Evolution(context.Background(), pfsTier, "lc1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(evo.Points) != ranks { // one transition per rank
		t.Fatalf("evolution points = %+v", evo.Points)
	}
	for _, p := range evo.Points {
		if p.ChangedFraction() <= 0 {
			t.Errorf("evolving simulation shows no change: %+v", p)
		}
	}

	// --- Stage 6: compact old history; tree-level comparison survives.
	for _, runID := range []string{"lc1", "lc2"} {
		rep, err := repro.CompactHistory(context.Background(), pfsTier, runID, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Removed) != ranks { // the older iteration, both ranks
			t.Fatalf("%s compacted %v", runID, rep.Removed)
		}
	}
	oldA := repro.CheckpointName("lc1", every, 0)
	oldB := repro.CheckpointName("lc2", every, 0)
	if ok, err := repro.IsCompacted(pfsTier, oldA); err != nil || !ok {
		t.Errorf("old checkpoint not compacted (err %v)", err)
	}
	treeRes, err := repro.CompareTreesOnly(context.Background(), pfsTier, oldA, oldB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if treeRes.CandidateChunks == 0 && fd.Iteration == every {
		t.Error("compacted tree comparison lost the divergence")
	}

	// The latest iteration still supports full data-level comparison.
	lastA := repro.CheckpointName("lc1", steps, 0)
	lastB := repro.CheckpointName("lc2", steps, 0)
	if _, err := repro.Compare(context.Background(), pfsTier, lastA, lastB, opts); err != nil {
		t.Fatalf("full comparison on retained history failed: %v", err)
	}
}

// TestJacobiLifecycle runs the second application through capture and
// comparison, confirming the library is not HACC-specific.
func TestJacobiLifecycle(t *testing.T) {
	pfsTier, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	localTier, err := repro.NewStore(t.TempDir(), repro.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-4, ChunkSize: 4 << 10}
	for i, runID := range []string{"j1", "j2"} {
		cfg := jacobi.DefaultConfig(48)
		cfg.Nondet = true
		cfg.NondetSeed = int64(i + 1)
		sim, err := jacobi.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ckpter := repro.NewCheckpointer(localTier, pfsTier, 1)
		for s := 0; s < 10; s++ {
			sim.Step()
			if sim.Iteration()%5 == 0 {
				if err := sim.Capture(ckpter, runID, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ckpter.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := repro.History(pfsTier, runID)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, _, err := repro.BuildAndSave(context.Background(), pfsTier, n, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := repro.CompareHistories(context.Background(), pfsTier, "j1", "j2", repro.MethodMerkle, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The Jacobi fields are identical between runs (only the residual
	// reduction is nondeterministic), so the histories must match.
	if !report.Reproducible() {
		t.Errorf("jacobi fields diverged: %+v", report.FirstDivergence)
	}
}
