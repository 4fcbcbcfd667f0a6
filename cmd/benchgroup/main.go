// Command benchgroup measures the N-run group-comparison engine against
// its sequential-pairwise equivalent and emits the results as JSON. The
// checked-in BENCH_group.json at the repository root is the tracked
// baseline; regenerate it with `make bench-json` and diff it in review.
//
// Each scenario builds one baseline checkpoint plus N perturbed replica
// runs with Merkle metadata, then compares the baseline against every
// replica two ways:
//
//	pairwise  N sequential compare.CompareMerkle calls — each pair
//	          re-opens the baseline, re-reads its metadata, and re-reads
//	          every candidate chunk the baseline shares between pairs
//	group     one compare.GroupCompare star plan — metadata loaded once
//	          per member, candidate sets of pairs sharing a member merged,
//	          one deduplicated batched read per member
//
// The headline columns are read_ops and read_bytes (store-level PFS
// operation counts, cached and uncached alike): the group plan must issue
// strictly fewer of both. Virtual milliseconds are deterministic model
// time; wall_ms is host noise.
//
// Usage:
//
//	benchgroup [-smoke] [-o file]
//
// Flags:
//
//	-smoke  tiny sizes: validates the runner end-to-end in milliseconds
//	        (wired into `make check`)
//	-o      output file ("" writes JSON to stdout)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is the JSON document benchgroup emits.
type Report struct {
	// GeneratedAt is the RFC 3339 wall-clock timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// GoVersion and GOMAXPROCS identify the toolchain and parallelism.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Smoke marks reduced-size validation runs; their numbers are not
	// comparable to full runs.
	Smoke bool `json:"smoke,omitempty"`
	// Workload describes the shared input every scenario compares.
	Workload Workload `json:"workload"`
	// Scenarios holds one pairwise-vs-group measurement per group size.
	Scenarios []Scenario `json:"scenarios"`
}

// Workload describes the synthetic runs every scenario is built from.
type Workload struct {
	// FieldElems is the element count of each float32 field.
	FieldElems int `json:"field_elems"`
	// Fields is the number of fields per checkpoint.
	Fields int `json:"fields"`
	// ChunkBytes is the Merkle chunk size.
	ChunkBytes int `json:"chunk_bytes"`
	// Epsilon is the error bound metadata was built with.
	Epsilon float64 `json:"epsilon"`
	// CheckpointBytes is one member's raw data size.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// Side is one approach's cost for a scenario.
type Side struct {
	// ReadOps and ReadBytes are store-level PFS read operations and bytes
	// (cached + uncached) over the whole approach.
	ReadOps   int64 `json:"read_ops"`
	ReadBytes int64 `json:"read_bytes"`
	// VirtualMs is the summed deterministic model time.
	VirtualMs float64 `json:"virtual_ms"`
	// WallMs is the measured wall time (hardware noise).
	WallMs float64 `json:"wall_ms"`
	// Diffs is the total divergent element count found (must match the
	// other side).
	Diffs int64 `json:"diffs"`
}

// Scenario is one group size's pairwise-vs-group measurement.
type Scenario struct {
	// Runs is N: the number of replicas compared against the baseline.
	Runs int `json:"runs"`
	// Topology is the group plan's pair coverage.
	Topology string `json:"topology"`
	// Pairwise is the cost of N sequential CompareMerkle calls.
	Pairwise Side `json:"pairwise"`
	// Group is the cost of one GroupCompare plan over the same pairs.
	Group Side `json:"group"`
	// ReadOpsSaved and ReadBytesSaved are 1 - group/pairwise: the shared
	// stage-2 I/O win. Positive means the group plan read less.
	ReadOpsSaved   float64 `json:"read_ops_saved_frac"`
	ReadBytesSaved float64 `json:"read_bytes_saved_frac"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgroup", flag.ContinueOnError)
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
		fmt.Fprintln(stderr, "benchgroup:", err)
		return 1
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchgroup:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchgroup:", err)
		return 1
	}
	return 0
}

// groupSizes are the N values measured: the paper's multi-run scenarios.
var groupSizes = []int{2, 4, 8}

func measureAll(smoke bool) (*Report, error) {
	ctx := context.Background()
	elems, chunk := 1<<20, 64<<10
	if smoke {
		elems, chunk = 8<<10, 4<<10
	}
	const (
		nFields = 3
		eps     = 1e-7
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
			CheckpointBytes: int64(elems) * 4 * nFields,
		},
	}
	dir, err := os.MkdirTemp("", "benchgroup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	opts := compare.Options{Epsilon: eps, ChunkSize: chunk, Exec: device.NewParallel(runtime.GOMAXPROCS(0))}

	maxRuns := groupSizes[len(groupSizes)-1]
	baseline, members, err := buildRuns(ctx, store, maxRuns, elems, nFields, opts)
	if err != nil {
		return nil, err
	}

	for _, n := range groupSizes {
		sc, err := measureScenario(ctx, store, baseline, members[:n], opts)
		if err != nil {
			return nil, fmt.Errorf("runs=%d: %w", n, err)
		}
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	return rep, nil
}

// buildRuns writes the baseline and n perturbed replicas with metadata.
func buildRuns(ctx context.Context, store *pfs.Store, n, elems, nFields int, opts compare.Options) (string, []string, error) {
	fields := make([]ckpt.FieldSpec, nFields)
	for i := range fields {
		fields[i] = ckpt.FieldSpec{Name: fmt.Sprintf("f%d", i), DType: errbound.Float32, Count: int64(elems)}
	}
	write := func(runID string, data [][]byte) (string, error) {
		meta := ckpt.Meta{RunID: runID, Iteration: 0, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			return "", err
		}
		name := ckpt.Name(runID, 0, 0)
		if _, _, err := compare.BuildAndSave(ctx, store, name, opts); err != nil {
			return "", err
		}
		return name, nil
	}
	var baseline string
	var members []string
	for i := 0; i <= n; i++ {
		// Same dataSeed reproduces the identical base run; each replica
		// gets its own clustered perturbation beyond ε.
		pert := synth.DefaultPerturb(int64(1000 + i))
		pert.MagLo, pert.MagHi = 1e-3, 1e-2
		base, replica := synth.RunPair(elems, nFields, 42, pert)
		if i == 0 {
			name, err := write("baseline", base)
			if err != nil {
				return "", nil, err
			}
			baseline = name
			continue
		}
		name, err := write(fmt.Sprintf("run%02d", i), replica)
		if err != nil {
			return "", nil, err
		}
		members = append(members, name)
	}
	return baseline, members, nil
}

func measureScenario(ctx context.Context, store *pfs.Store, baseline string, runs []string, opts compare.Options) (Scenario, error) {
	sc := Scenario{Runs: len(runs), Topology: compare.TopologyStar.String()}

	// Sequential pairwise: each pair pays the baseline's metadata load and
	// overlapping candidate reads again.
	store.EvictAll()
	startOps, startBytes := store.ReadStats()
	sw := time.Now()
	for _, name := range runs {
		res, err := compare.CompareMerkle(ctx, store, baseline, name, opts)
		if err != nil {
			return sc, err
		}
		sc.Pairwise.VirtualMs += float64(res.VirtualElapsed()) / float64(time.Millisecond)
		sc.Pairwise.Diffs += res.DiffCount
	}
	sc.Pairwise.WallMs = float64(time.Since(sw)) / float64(time.Millisecond)
	ops, bytes := store.ReadStats()
	sc.Pairwise.ReadOps = ops - startOps
	sc.Pairwise.ReadBytes = bytes - startBytes

	// Group: one shared plan over the same pairs.
	store.EvictAll()
	sw = time.Now()
	grp, err := compare.GroupCompare(ctx, store, baseline, runs, compare.TopologyStar, opts)
	if err != nil {
		return sc, err
	}
	sc.Group.WallMs = float64(time.Since(sw)) / float64(time.Millisecond)
	sc.Group.ReadOps = grp.ReadOps
	sc.Group.ReadBytes = grp.ReadBytes
	sc.Group.VirtualMs = float64(grp.Breakdown.Total().Virtual) / float64(time.Millisecond)
	for _, p := range grp.Pairs {
		sc.Group.Diffs += p.Result.DiffCount
	}

	if sc.Group.Diffs != sc.Pairwise.Diffs {
		return sc, fmt.Errorf("group found %d diffs, pairwise %d", sc.Group.Diffs, sc.Pairwise.Diffs)
	}
	if sc.Pairwise.ReadOps > 0 {
		sc.ReadOpsSaved = 1 - float64(sc.Group.ReadOps)/float64(sc.Pairwise.ReadOps)
	}
	if sc.Pairwise.ReadBytes > 0 {
		sc.ReadBytesSaved = 1 - float64(sc.Group.ReadBytes)/float64(sc.Pairwise.ReadBytes)
	}
	if sc.Group.ReadOps >= sc.Pairwise.ReadOps {
		return sc, fmt.Errorf("group issued %d read ops, pairwise %d: shared-read win missing",
			sc.Group.ReadOps, sc.Pairwise.ReadOps)
	}
	if sc.Group.ReadBytes >= sc.Pairwise.ReadBytes {
		return sc, fmt.Errorf("group read %d bytes, pairwise %d: shared-read win missing",
			sc.Group.ReadBytes, sc.Pairwise.ReadBytes)
	}
	return sc, nil
}
