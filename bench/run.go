package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/murmur3"
)

// env is what every workload of one invocation shares.
type env struct {
	procs   int    // GOMAXPROCS, plane workers, and the daemon child's GOMAXPROCS
	smoke   bool   // tiny inputs: validates the runner, numbers mean nothing
	seed    int64  // input seed
	modRoot string // module root: where `go build ./cmd/reprod` runs
	work    string // scratch directory inside the checkout, removed at exit
	outDir  string // bench/out: trace files
	log     io.Writer
	// The daemon binary, built on first use (see daemonBinary).
	buildOnce sync.Once
	daemonBin string
	buildErr  error
	// assertOverhead makes a tracing overhead beyond maxTraceOverhead a
	// violation; a short single-workload run only reports it.
	assertOverhead bool
}

// instance is one set-up workload: inputs generated and captured, ready
// to run ops. Closing it releases everything set-up acquired.
type instance interface {
	// clients is the closed-loop client count; client c runs ops
	// c, c+clients, ... concurrently with the others.
	clients() int
	// op runs operation i and returns its timed span, which leaves out
	// the workload's untimed housekeeping. With a tracer it also records
	// spans and accumulates the per-layer counters. Every op checks its
	// output against the oracle: a wrong answer is an error.
	op(ctx context.Context, client, i int, tr *tracer) (time.Duration, error)
	// layers returns the per-layer metrics: counters accumulated by the
	// traced ops, span statistics, and the standalone probes, which run
	// now, after the op loop, on the workload's inputs.
	layers(ctx context.Context, spans []span, out map[string]float64) error
	// childPID is the daemon's pid for a served workload, 0 otherwise.
	childPID() int
	digest() murmur3.Digest
	bytesPerOp() int64
	close() error
}

// workloadDef names a workload and builds instances of it.
type workloadDef struct {
	name, why string
	// warm is the untimed warm-up before the window: long enough for the
	// pool, the ring and the heap to settle.
	warm  time.Duration
	setup func(ctx context.Context, e *env, dir string) (instance, error)
}

// serveWarm is longer than the others' warm-up: the daemon keeps every
// job it served, so its heap, and with it the GC's pacing, settles only
// after a few thousand jobs; ops are a third slower until then.
const (
	planeWarm = time.Second
	serveWarm = 5 * time.Second
)

var workloads = []workloadDef{
	{"pair_sparse", "two 28 MiB runs that differ in about 1.5 % of their 4 KiB chunks: the fixed per-comparison cost (open, metadata load, tree diff, dispatch) dominates and stage 2 is small", planeWarm, setupPairSparse},
	{"pair_dense", "every 64 KiB chunk is a candidate, so stage 2 (aio, stream, errbound compare, pool) is nearly all of the op and a metadata or dispatch change must show nothing", planeWarm, setupPairDense},
	{"group_star", "one baseline against three runs as one plan: shared metadata loads and deduplicated baseline reads, the group path's use of the same stage-2 layers", planeWarm, setupGroupStar},
	{"capture_full", "the write side: checkpoint encode and write, read-back, fused quantize+hash, tree build, metadata save; the only workload where the leaf-hash kernel matters", planeWarm, setupCaptureFull},
	{"serve_sparse", "cheap compare jobs through a real reprod child over HTTP with a journal, from concurrent tenants: HTTP, admission, WAL appends and job bookkeeping are a visible share of the op", serveWarm, setupServeSparse},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sliceLen is how long the closed loop runs between two calibration
// points: short enough that the machine's speed at both ends describes
// it, long enough that the reference job stays about 2 % of the run.
const (
	sliceLen       = 250 * time.Millisecond
	secondOfSlices = int(time.Second / sliceLen)
)

// childSettle is how long a served workload's daemon is left alone
// between a slice and the calibration point after it.
const childSettle = 30 * time.Millisecond

// windows fixes how long one run measures, in slices of sliceLen. With
// traced > 0 untraced and traced slices alternate, so machine drift hits
// both alike and their ratio is the tracing overhead.
type windows struct {
	// e2e says the untraced window is the full one the end-to-end metrics
	// are defined over; a traced single-workload run splits its time and
	// uses the untraced share only as the overhead baseline.
	e2e      bool
	setups   int
	untraced time.Duration
	traced   time.Duration
}

// workloadResult is one workload's outcome in one run.
type workloadResult struct {
	Name        string `json:"name"`
	InputDigest string `json:"input_digest"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Clients     int    `json:"clients"`
	Ops         int    `json:"ops"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	Correct     bool   `json:"correct"`
	// SpeedScale is the median factor the slices' times were multiplied
	// by to bring them to the reference machine speed: below 1, the box
	// ran slower than the reference while this workload was measured.
	SpeedScale float64            `json:"speed_scale"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// Violations lists the traced-pass invariants that did not hold.
	Violations []string `json:"violations,omitempty"`
}

// sample is the outcome of one measured slice.
type sample struct {
	walls     []time.Duration // timed span of each successful op
	attempted int
	failed    int
	elapsed   time.Duration // first op start to last op end
	proc      procSnap      // process cost of the slice
	// sliceP50 is the median op time, in ms, of each second of untraced
	// slices, filled in by runWorkload: their spread is the noise floor a
	// difference of medians must clear.
	sliceP50 []float64
}

// scale brings the slice's times to the reference machine speed (see
// calib.go); the process cost stays as measured.
func (s *sample) scale(f float64) {
	for i, w := range s.walls {
		s.walls[i] = time.Duration(float64(w) * f)
	}
	s.elapsed = time.Duration(float64(s.elapsed) * f)
}

func (s *sample) add(o sample) {
	s.walls = append(s.walls, o.walls...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
	s.proc = s.proc.plus(o.proc)
}

// maxLoggedFailures bounds the failed ops echoed to the log.
const maxLoggedFailures = 5

// measure runs the closed loop for d: every client issues its next op as
// soon as the previous one returned. next is the first op index and the
// index after the last one issued is returned, so slices continue each
// other's walk over the input pool.
func measure(ctx context.Context, e *env, inst instance, d time.Duration, next int, tr *tracer) (sample, int) {
	n := inst.clients()
	per := make([]sample, n)
	before := snapProc(inst.childPID())
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		logged int
	)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &per[c]
			for i := next + c; ctx.Err() == nil && time.Now().Before(deadline); i += n {
				s.attempted++
				wall, err := inst.op(ctx, c, i, tr)
				if err != nil {
					s.failed++
					mu.Lock()
					if logged < maxLoggedFailures {
						logged++
						fmt.Fprintf(e.log, "bench: op %d failed: %v\n", i, err)
					}
					mu.Unlock()
					continue
				}
				s.walls = append(s.walls, wall)
			}
		}(c)
	}
	wg.Wait()
	var out sample
	most := 0
	for _, s := range per {
		out.add(s)
		most = max(most, s.attempted)
	}
	out.elapsed = time.Since(start)
	out.proc = snapProc(inst.childPID()).minus(before)
	return out, next + most*n
}

// runWorkload sets the workload up (several times, for a steady set-up
// time), warms it, measures it and tears it down.
func runWorkload(ctx context.Context, e *env, def workloadDef, win windows) (res *workloadResult, err error) {
	var (
		inst   instance
		dir    string
		setups []time.Duration
	)
	closeInst := func() {
		if inst == nil {
			return
		}
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: tear-down: %w", def.name, cerr)
		}
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		inst = nil
	}
	defer closeInst()
	cal, err := newCalibrator(e.work, e.procs)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cal.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for r := 0; r < win.setups; r++ {
		closeInst()
		if err != nil {
			return nil, err
		}
		dir = filepath.Join(e.work, fmt.Sprintf("%s-%d", def.name, r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		before, err := cal.point()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		inst, err = def.setup(ctx, e, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		took := time.Since(t0)
		if inst.childPID() != 0 {
			time.Sleep(childSettle)
		}
		after, err := cal.point()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Duration(float64(took)*speedScale(before, after)))
	}

	// Set-up garbage (the generated runs) must not shape the op loop's GC
	// pacing: a caller of the system holds none of it.
	runtime.GC()
	debug.FreeOSMemory()

	warm := def.warm
	if e.smoke {
		warm = 100 * time.Millisecond
	}
	_, next := measure(ctx, e, inst, warm, 0, nil)

	var tr *tracer
	if win.traced > 0 {
		tr = newTracer()
	}
	// Slice i lies between calibration points i and i+1; untraced and
	// traced slices alternate, so drift the scale does not remove still
	// hits both alike.
	type timedSlice struct {
		sample
		traced bool
	}
	var slices []timedSlice
	first, err := cal.point()
	if err != nil {
		return nil, err
	}
	points := []time.Duration{first}
	slice := func(d time.Duration, tr *tracer) error {
		var s sample
		s, next = measure(ctx, e, inst, d, next, tr)
		slices = append(slices, timedSlice{s, tr != nil})
		if inst.childPID() != 0 {
			// The daemon goes on collecting garbage and flushing its
			// journal for some milliseconds after its last reply; the
			// reference job must time the machine, not that tail.
			time.Sleep(childSettle)
		}
		pt, err := cal.point()
		points = append(points, pt)
		return err
	}
	for left, leftTr := win.untraced, win.traced; (left > 0 || leftTr > 0) && ctx.Err() == nil; {
		if left > 0 {
			d := min(left, sliceLen)
			if err := slice(d, nil); err != nil {
				return nil, err
			}
			left -= d
		}
		if leftTr > 0 {
			d := min(leftTr, sliceLen)
			if err := slice(d, tr); err != nil {
				return nil, err
			}
			leftTr -= d
		}
	}
	var (
		plain, traced sample
		scales        []float64
	)
	for i, s := range slices {
		// The two points at each end of the slice: one job is too short
		// to be a steady reading, twelve are.
		f := speedScale(points[max(0, i-1):min(len(points), i+3)]...)
		s.scale(f)
		scales = append(scales, f)
		if s.traced {
			traced.add(s.sample)
		} else {
			plain.add(s.sample)
		}
	}
	for i := 0; i+secondOfSlices <= len(slices); i += secondOfSlices {
		var sec []time.Duration
		for _, s := range slices[i : i+secondOfSlices] {
			if !s.traced {
				sec = append(sec, s.walls...)
			}
		}
		if m, err := median(sortDurations(sec)); err == nil {
			plain.sliceP50 = append(plain.sliceP50, ms(m))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res = &workloadResult{
		Name:        def.name,
		InputDigest: inst.digest().String(),
		BytesPerOp:  inst.bytesPerOp(),
		Clients:     inst.clients(),
		Ops:         len(plain.walls),
		Attempted:   plain.attempted + traced.attempted,
		Failed:      plain.failed + traced.failed,
		SpeedScale:  medianFloat(scales),
		EndToEnd:    make(map[string]float64),
	}
	setupS, err := medianOf(setups, time.Second)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = setupS
	sorted := sortDurations(plain.walls)
	p50, err := median(sorted)
	if err != nil {
		return nil, fmt.Errorf("%s: no op completed in the window", def.name)
	}
	res.EndToEnd["op_wall_ms_p50"] = ms(p50)
	if win.e2e {
		p90, err := percentile(sorted, 0.90)
		if err != nil {
			return nil, fmt.Errorf("%s: op_wall_ms_p90: %w (lengthen the window or shrink the input)", def.name, err)
		}
		res.EndToEnd["op_wall_ms_p90"] = ms(p90)
	}
	res.EndToEnd["ops_per_s"] = float64(len(plain.walls)) / plain.elapsed.Seconds()

	if tr != nil {
		if err := tracedMetrics(ctx, e, def, inst, tr, plain, traced, res); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", def.name, err)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

// maxTraceOverhead is the most the traced median may exceed the untraced
// one by; beyond it the per-layer numbers describe a different program.
const maxTraceOverhead = 0.05

// tracedMetrics fills res.PerLayer from the traced slices and the probes,
// writes the trace file and checks the traced-pass invariants.
func tracedMetrics(ctx context.Context, e *env, def workloadDef, inst instance, tr *tracer, plain, traced sample, res *workloadResult) error {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	// Process cost comes from the untraced slices: the tracer's own span
	// storage would otherwise count as the program's allocation.
	if n := float64(len(plain.walls)); n > 0 {
		out["proc.alloc_mb_per_op"] = float64(plain.proc.allocBytes) / 1e6 / n
		out["proc.cpu_ms_per_op"] = ms(plain.proc.cpu) / n
		out["proc.gc_pause_ms"] = ms(plain.proc.gcPause) / n
	}
	out["proc.peak_rss_mb"] = peakRSSMB(inst.childPID())

	spans := tr.snapshot()
	if err := inst.layers(ctx, spans, out); err != nil {
		var v violation
		if !errors.As(err, &v) {
			return err
		}
		res.Violations = append(res.Violations, v.Error())
	}

	tracedP50, err := median(sortDurations(traced.walls))
	if err != nil {
		return fmt.Errorf("no traced op completed")
	}
	overhead := ms(tracedP50)/res.EndToEnd["op_wall_ms_p50"] - 1
	out["trace.overhead_frac"] = overhead
	//lint:ignore floatcmp,epsflow the overhead ceiling is an exact gate, not an ε comparison
	if overhead >= maxTraceOverhead && e.assertOverhead {
		// A difference of two medians means something only above the
		// spread between the untraced slices' own medians.
		//lint:ignore floatcmp,epsflow the overhead ceiling is an exact gate, not an ε comparison
		if noise := spread(plain.sliceP50); noise >= maxTraceOverhead {
			fmt.Fprintf(e.log, "bench: %s: tracing overhead %.3f unresolved: untraced slices spread by %.3f\n", def.name, overhead, noise)
		} else {
			res.Violations = append(res.Violations, fmt.Sprintf("tracing overhead %.3f exceeds %.2f (untraced slices spread by %.3f)", overhead, maxTraceOverhead, noise))
		}
	}

	// Σ step wall ≤ op wall, per span: a child may not outlast its parent.
	for _, s := range spans {
		if s.Parent >= 0 && (s.End > spans[s.Parent].End || s.Start < spans[s.Parent].Start) {
			res.Violations = append(res.Violations, fmt.Sprintf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, s.Parent, spans[s.Parent].Name))
			break
		}
	}
	res.PerLayer = out
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(e.outDir, "trace-"+def.name+".json"), def.name, len(traced.walls), spans)
}

// violation is a traced-pass invariant that did not hold; it marks the
// run incorrect without hiding the metrics.
type violation string

func (v violation) Error() string { return string(v) }
