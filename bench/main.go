// Command bench is the repository's one benchmark: five workloads over
// the whole stack (capture, pair and group comparison, the served path
// through a real reprod child), four end-to-end metrics per workload
// measured with tracing off and scaled to a reference machine speed (see
// calib.go), and a per-layer table from a traced pass.
// BENCHMARK.json at the repository root names the metrics, the workloads
// and the regression bounds; README.md in this directory explains them.
//
// Usage:
//
//	go run ./bench                          all workloads, traced pass, result file
//	go run ./bench -workload W -trace 0|1   one workload; last line is one JSON object
//	go run ./bench -check A.json B.json     compare two result files against the bounds
//
// Flags:
//
//	-workload  pair_sparse | pair_dense | group_star | capture_full | serve_sparse | all
//	-seed      input seed (default 1); the same seed gives the same inputs
//	-seconds   measured window per workload (default 15)
//	-trace     with -workload: 0 prints the end-to-end metrics, 1 the per-layer ones
//	-runs      with all workloads: back-to-back full runs kept in the result file
//	-o         result file (default bench/out/result.json)
//	-smoke     tiny inputs and a 1 s window: validates the runner only
//	-check     compare two result files; exit 1 when any metric is worse
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// maxProcs caps GOMAXPROCS, the plane's workers and the client count:
// virtual-time columns are deterministic only at a fixed worker count,
// so the benchmark fixes one that every box it runs on can provide.
const maxProcs = 4

// findModRoot walks up from the working directory to the repro module.
func findModRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module (no go.mod found)")
		}
		dir = parent
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", defaultSeconds, "measured window per workload, in seconds")
		trace    = fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
		runs     = fs.Int("runs", 1, "back-to-back full runs recorded in the result file")
		outPath  = fs.String("o", "", "result file (default bench/out/result.json)")
		smoke    = fs.Bool("smoke", false, "tiny inputs, 1 s window; validates the runner, numbers not comparable")
		doCheck  = fs.Bool("check", false, "compare two result files: -check A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	modRoot, err := findModRoot()
	if err != nil {
		return fail(err)
	}
	if *doCheck {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -check takes two result files")
			return 2
		}
		code, err := runCheck(filepath.Join(modRoot, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return code
	}
	if fs.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}

	e := &env{
		procs:   min(runtime.NumCPU(), maxProcs),
		smoke:   *smoke,
		seed:    *seed,
		modRoot: modRoot,
		outDir:  filepath.Join(modRoot, "bench", "out"),
		log:     stderr,
	}
	runtime.GOMAXPROCS(e.procs)
	// Scratch space lives inside the checkout and goes away on every
	// exit path; a signal cancels ctx, which unwinds to here.
	buildDir := filepath.Join(modRoot, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	if e.work, err = os.MkdirTemp(buildDir, "work-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.work)

	window := time.Duration(*seconds) * time.Second
	if *workload != "all" {
		def, ok := findWorkload(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		win := windows{e2e: true, setups: 5, untraced: window}
		if *trace == 1 {
			win.e2e, win.untraced, win.traced = false, window*2/5, window*2/5
		}
		if e.smoke {
			win = smokeWindows
		}
		res, err := runWorkload(ctx, e, def, win)
		if err != nil {
			return fail(err)
		}
		printResult(stderr, res)
		//lint:ignore detflow a benchmark result records measured wall-clock durations by design
		line, err := driverJSON(res, *trace == 1)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	// All workloads: tracing off for the window, then the traced pass.
	e.assertOverhead = !e.smoke
	win := windows{e2e: true, setups: 5, untraced: window, traced: window / 2}
	if e.smoke {
		win = smokeWindows
	}
	file := &resultFile{Stamp: newStamp(ctx, e, *seconds)}
	code := 0
	for r := 0; r < *runs; r++ {
		var run []*workloadResult
		for _, def := range workloads {
			res, err := runWorkload(ctx, e, def, win)
			if err != nil {
				return fail(err)
			}
			printResult(stdout, res)
			if !res.Correct {
				code = 1
			}
			run = append(run, res)
		}
		file.Runs = append(file.Runs, run)
	}
	if *outPath == "" {
		*outPath = filepath.Join(e.outDir, "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
		return fail(err)
	}
	if err := file.write(*outPath); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nresult file: %s\n", *outPath)
	return code
}

// smokeWindows validates the runner end to end in about a second per
// workload.
var smokeWindows = windows{e2e: true, setups: 1, untraced: time.Second, traced: 500 * time.Millisecond}
