// Command benchshard measures the subtree-sharded comparison engine
// (internal/shard) across worker counts, assignment policies, and work
// stealing, and emits the results as JSON. The checked-in
// BENCH_shard.json at the repository root is the tracked baseline;
// regenerate it with `make bench-json` and diff it in review.
//
// Two workloads exercise the two scheduling claims:
//
//	skewed   every divergent subtree sits in the first quarter of field 0,
//	         the shape that punishes static owner-computes assignment: the
//	         whole stage-2 load lands on one worker's key-space block.
//	         Rows sweep workers × {static, stealing}; the tracked floor is
//	         stealing cutting the 8-worker virtual makespan ≥ 1.5×.
//	uniform  every subtree diverges, over a store striped across 4 OSTs.
//	         Rows sweep assignment policies at 4 workers; the tracked
//	         floor is placement-aware assignment (each OST read by one
//	         worker) beating seeded-random assignment on read virtual
//	         time.
//
// Every row is cross-checked against the single-node CompareMerkle
// oracle — identical divergent-element counts — and against the bounded
// buffer budget (peak in-flight bytes ≤ Budget). All scheduling numbers
// are deterministic virtual model time; wall_ms is host noise.
//
// Usage:
//
//	benchshard [-smoke] [-o file]
//
// Flags:
//
//	-smoke  tiny sizes: validates the runner and the oracle identity in
//	        milliseconds, skips the performance floors (wired into
//	        `make check`)
//	-o      output file ("" writes JSON to stdout)
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/shard"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is the JSON document benchshard emits.
type Report struct {
	// GeneratedAt is the RFC 3339 wall-clock timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// GoVersion and GOMAXPROCS identify the toolchain and parallelism.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Smoke marks reduced-size validation runs; their numbers are not
	// comparable to full runs and the floors are not enforced.
	Smoke bool `json:"smoke,omitempty"`
	// Skewed and Uniform are the two workload sections.
	Skewed  Section `json:"skewed"`
	Uniform Section `json:"uniform"`
	// Floors are the self-checked performance claims of the full run.
	Floors Floors `json:"floors"`
}

// Workload describes one section's synthetic input.
type Workload struct {
	// FieldElems is the element count of each float32 field.
	FieldElems int `json:"field_elems"`
	// Fields is the number of fields per checkpoint.
	Fields int `json:"fields"`
	// ChunkBytes is the Merkle chunk size.
	ChunkBytes int `json:"chunk_bytes"`
	// SubtreeChunks is the work-unit granularity.
	SubtreeChunks int `json:"subtree_chunks"`
	// Epsilon is the error bound metadata was built with.
	Epsilon float64 `json:"epsilon"`
	// Targets and StripeBytes describe OST striping (0 targets = unstriped).
	Targets     int   `json:"targets,omitempty"`
	StripeBytes int64 `json:"stripe_bytes,omitempty"`
	// OracleDiffs is the single-node CompareMerkle divergent-element count
	// every sharded row must reproduce exactly.
	OracleDiffs int64 `json:"oracle_diffs"`
}

// Section is one workload's sweep.
type Section struct {
	Workload Workload `json:"workload"`
	Rows     []Row    `json:"rows"`
}

// Row is one sharded-run measurement.
type Row struct {
	// Workers, Assignment, and Stealing identify the configuration.
	Workers    int    `json:"workers"`
	Assignment string `json:"assignment"`
	Stealing   bool   `json:"stealing"`
	// Units is the number of divergent-subtree work units executed.
	Units int64 `json:"units"`
	// MakespanVirtualMs is the slowest worker's virtual clock — the
	// scale-out headline.
	MakespanVirtualMs float64 `json:"makespan_virtual_ms"`
	// ReadVirtualMs and TotalVirtualMs split the fleet's summed model time.
	ReadVirtualMs  float64 `json:"read_virtual_ms"`
	TotalVirtualMs float64 `json:"total_virtual_ms"`
	// Steals and StolenUnits count work-stealing activity.
	Steals      int64 `json:"steals"`
	StolenUnits int64 `json:"stolen_units"`
	// PeakInFlight is the largest per-worker in-flight buffer footprint
	// observed; always ≤ BudgetBytes.
	PeakInFlight int64 `json:"peak_in_flight"`
	BudgetBytes  int64 `json:"budget_bytes"`
	// Diffs is the divergent element count (must equal the oracle's).
	Diffs int64 `json:"diffs"`
	// WallMs is the measured wall time (hardware noise).
	WallMs float64 `json:"wall_ms"`
}

// Floors are the tracked performance claims, enforced on full runs.
type Floors struct {
	// StealSpeedup is static/stealing virtual makespan at the highest
	// worker count on the skewed workload. Floor: ≥ 1.5.
	StealSpeedup float64 `json:"steal_speedup_skewed_8w"`
	// PlacementReadVirtualMs vs RandomReadVirtualMs on the striped uniform
	// workload. Floor: placement strictly below random.
	PlacementReadVirtualMs float64 `json:"placement_read_virtual_ms"`
	RandomReadVirtualMs    float64 `json:"random_read_virtual_ms"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchshard", flag.ContinueOnError)
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
		fmt.Fprintln(stderr, "benchshard:", err)
		return 1
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchshard:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchshard:", err)
		return 1
	}
	return 0
}

const eps = 1e-3

// bumpF32 pushes the float32 at element index i of data beyond ε.
func bumpF32(data []byte, i int) {
	v := math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(v+float32(50*eps)))
}

// buildPair writes one checkpoint pair (B mutated from A per field) with
// Merkle metadata and returns the pair's names.
func buildPair(store *pfs.Store, label string, elems int, opts compare.Options, mutateB func(fi int, data []byte)) (string, string, error) {
	const nFields = 3
	fields := make([]ckpt.FieldSpec, nFields)
	dataA := make([][]byte, nFields)
	dataB := make([][]byte, nFields)
	for fi := 0; fi < nFields; fi++ {
		fields[fi] = ckpt.FieldSpec{Name: fmt.Sprintf("f%d", fi), DType: errbound.Float32, Count: int64(elems)}
		dataA[fi] = synth.FieldF32(elems, int64(700+fi))
		dataB[fi] = append([]byte{}, dataA[fi]...)
		if mutateB != nil {
			mutateB(fi, dataB[fi])
		}
	}
	nameA, nameB := ckpt.Name(label+"A", 0, 0), ckpt.Name(label+"B", 0, 0)
	for i, nd := range []struct {
		run  string
		data [][]byte
	}{{label + "A", dataA}, {label + "B", dataB}} {
		meta := ckpt.Meta{RunID: nd.run, Iteration: 0, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, nd.data); err != nil {
			return "", "", err
		}
		m, _, err := compare.Build(fields, nd.data, opts)
		if err != nil {
			return "", "", err
		}
		name := []string{nameA, nameB}[i]
		if _, err := compare.SaveMetadata(store, name, m); err != nil {
			return "", "", err
		}
	}
	return nameA, nameB, nil
}

func measureAll(smoke bool) (*Report, error) {
	ctx := context.Background()
	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Smoke:       smoke,
	}
	dir, err := os.MkdirTemp("", "benchshard-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}

	if err := measureSkewed(ctx, store, smoke, rep); err != nil {
		return nil, fmt.Errorf("skewed: %w", err)
	}
	if err := measureUniform(ctx, store, smoke, rep); err != nil {
		return nil, fmt.Errorf("uniform: %w", err)
	}
	if !smoke {
		if rep.Floors.StealSpeedup < 1.5 {
			return nil, fmt.Errorf("floor violated: stealing speedup %.2f < 1.5 on the skewed workload",
				rep.Floors.StealSpeedup)
		}
		if rep.Floors.PlacementReadVirtualMs >= rep.Floors.RandomReadVirtualMs {
			return nil, fmt.Errorf("floor violated: placement read virtual %.3fms not below random %.3fms",
				rep.Floors.PlacementReadVirtualMs, rep.Floors.RandomReadVirtualMs)
		}
	}
	return rep, nil
}

// runRow executes one sharded comparison and folds it into a Row,
// checking the oracle identity and the budget invariant.
func runRow(ctx context.Context, store *pfs.Store, nameA, nameB string, cfg shard.Config, opts compare.Options, oracleDiffs int64) (Row, error) {
	store.EvictAll()
	sw := time.Now()
	res, stats, err := shard.Compare(ctx, store, nameA, nameB, cfg, opts)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Workers:           stats.Workers,
		Assignment:        stats.Assignment,
		Stealing:          stats.Stealing,
		Units:             int64(stats.Units),
		MakespanVirtualMs: ms(stats.MakespanVirtual),
		ReadVirtualMs:     ms(stats.ReadVirtual),
		TotalVirtualMs:    ms(stats.TotalVirtual),
		Steals:            stats.Steals,
		StolenUnits:       stats.StolenUnits,
		PeakInFlight:      stats.PeakInFlight,
		BudgetBytes:       stats.BudgetBytes,
		Diffs:             res.DiffCount,
		WallMs:            ms(time.Since(sw)),
	}
	if row.Diffs != oracleDiffs {
		return row, fmt.Errorf("%s workers=%d stealing=%v: %d diffs, oracle found %d",
			row.Assignment, row.Workers, row.Stealing, row.Diffs, oracleDiffs)
	}
	if row.PeakInFlight > row.BudgetBytes {
		return row, fmt.Errorf("%s workers=%d: peak in-flight %d exceeds budget %d",
			row.Assignment, row.Workers, row.PeakInFlight, row.BudgetBytes)
	}
	return row, nil
}

func measureSkewed(ctx context.Context, store *pfs.Store, smoke bool, rep *Report) error {
	elems, chunk, subtree := 1<<20, 16<<10, 4
	workerGrid := []int{1, 2, 4, 8}
	if smoke {
		elems, chunk, subtree = 64<<10, 4<<10, 2
		workerGrid = []int{2, 8}
	}
	opts := compare.Options{Epsilon: eps, ChunkSize: chunk, Exec: device.NewParallel(runtime.GOMAXPROCS(0))}
	// Divergence confined to the first quarter of field 0: a narrow band at
	// the front of the global chunk-key space.
	nameA, nameB, err := buildPair(store, "skew", elems, opts, func(fi int, data []byte) {
		if fi != 0 {
			return
		}
		for i := 0; i < elems/4; i += chunk / 4 {
			bumpF32(data, i)
		}
	})
	if err != nil {
		return err
	}
	store.EvictAll()
	oracle, err := compare.CompareMerkle(ctx, store, nameA, nameB, opts)
	if err != nil {
		return err
	}
	rep.Skewed.Workload = Workload{
		FieldElems: elems, Fields: 3, ChunkBytes: chunk, SubtreeChunks: subtree,
		Epsilon: eps, OracleDiffs: oracle.DiffCount,
	}
	var makespan = map[bool]float64{} // stealing -> last grid point's makespan
	for _, workers := range workerGrid {
		for _, stealing := range []bool{false, true} {
			cfg := shard.Config{Workers: workers, Assignment: shard.AssignBlock, Stealing: stealing, SubtreeChunks: subtree}
			row, err := runRow(ctx, store, nameA, nameB, cfg, opts, oracle.DiffCount)
			if err != nil {
				return err
			}
			rep.Skewed.Rows = append(rep.Skewed.Rows, row)
			makespan[stealing] = row.MakespanVirtualMs
		}
	}
	if makespan[true] > 0 {
		rep.Floors.StealSpeedup = makespan[false] / makespan[true]
	}
	return nil
}

func measureUniform(ctx context.Context, store *pfs.Store, smoke bool, rep *Report) error {
	// 64KiB chunks keep the policy comparison honest: no single chunk read
	// can be a whole-op cache hit, so the per-target sharers factor on the
	// scattered-bandwidth term is the only difference between policies.
	elems, chunk, subtree, workers := 1<<20, 64<<10, 4, 4
	if smoke {
		elems, chunk, subtree = 128<<10, 32<<10, 2
	}
	const targets = 4
	stripe := int64(subtree * chunk) // one work unit per stripe
	opts := compare.Options{Epsilon: eps, ChunkSize: chunk, Exec: device.NewParallel(runtime.GOMAXPROCS(0))}
	nameA, nameB, err := buildPair(store, "unif", elems, opts, func(fi int, data []byte) {
		for i := 0; i < elems; i += chunk / 4 {
			bumpF32(data, i)
		}
	})
	if err != nil {
		return err
	}
	store.EvictAll()
	oracle, err := compare.CompareMerkle(ctx, store, nameA, nameB, opts)
	if err != nil {
		return err
	}
	rep.Uniform.Workload = Workload{
		FieldElems: elems, Fields: 3, ChunkBytes: chunk, SubtreeChunks: subtree,
		Epsilon: eps, Targets: targets, StripeBytes: stripe, OracleDiffs: oracle.DiffCount,
	}
	if err := store.SetStriping(pfs.Striping{Targets: targets, StripeBytes: stripe}); err != nil {
		return err
	}
	defer func() { _ = store.SetStriping(pfs.Striping{}) }()
	for _, a := range []shard.Assignment{shard.AssignBlock, shard.AssignPlacement, shard.AssignRandom} {
		cfg := shard.Config{Workers: workers, Assignment: a, Seed: 7, SubtreeChunks: subtree}
		row, err := runRow(ctx, store, nameA, nameB, cfg, opts, oracle.DiffCount)
		if err != nil {
			return err
		}
		rep.Uniform.Rows = append(rep.Uniform.Rows, row)
		switch a {
		case shard.AssignPlacement:
			rep.Floors.PlacementReadVirtualMs = row.ReadVirtualMs
		case shard.AssignRandom:
			rep.Floors.RandomReadVirtualMs = row.ReadVirtualMs
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
