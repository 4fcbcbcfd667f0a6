// Command reprocmp is the offline comparison tool of the paper (§2.5,
// "offline (using a command line tool)"): it builds error-bounded Merkle
// metadata for checkpoints and compares checkpoint pairs or whole run
// histories on a store directory.
//
// Usage:
//
//	reprocmp hash    -store DIR -ckpt NAME -eps 1e-6 [-chunk 65536]
//	reprocmp compare -store DIR -a NAME -b NAME -eps 1e-6 [-chunk 65536] [-method merkle|direct|allclose]
//	reprocmp shard   -store DIR -a NAME -b NAME -eps 1e-6 [-workers 4] [-assign block|placement|random] [-static] [-targets K [-stripe BYTES]]
//	reprocmp group   -store DIR -baseline NAME -runs NAME,NAME,... -eps 1e-6 [-topology star|all-pairs]
//	reprocmp history -store DIR -runa RUN1 -runb RUN2 -eps 1e-6 [-method merkle] [-hash]
//	reprocmp inspect -store DIR -ckpt NAME
//	reprocmp attest     -store DIR -job ID [-journal NAME] [-json]
//	reprocmp verify-log -store DIR [-journal NAME] [-recompute JOB] [-json]
//
// Exit codes: 0 clean match, 1 operational error, 2 proven divergence,
// 3 degraded-but-inconclusive (only with -degrade: the comparison
// completed on a degraded path, found no out-of-bound element, but could
// not verify every candidate chunk). Proven divergence wins over
// degradation.
//
// Every subcommand honours SIGINT/SIGTERM: an interrupted comparison
// cancels its engine plan and exits with the context error.
//
// Checkpoint names follow the canonical <run>/iterNNNN.rankRRR.ckpt
// layout produced by the capture library and cmd/haccgen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
	"repro/internal/catalog"
	"repro/internal/compare"
)

// errDivergent signals a successful comparison that found out-of-bound
// differences; main maps it to exit code 2 so scripts can branch on it.
var errDivergent = errors.New("runs diverge beyond the error bound")

// errDegraded signals a comparison that completed on a degraded path with
// NO proven divergence: some chunks were unread or unverifiable, so the
// clean verdict is inconclusive. main maps it to exit code 3 — distinct
// from both a clean match (0) and proven divergence (2). Proven
// divergence always wins: a degraded run that still found out-of-bound
// elements exits 2.
var errDegraded = errors.New("comparison degraded: result is inconclusive")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errDivergent) {
			os.Exit(2)
		}
		if errors.Is(err, errDegraded) {
			fmt.Fprintln(os.Stderr, "reprocmp:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "reprocmp:", err)
		os.Exit(1)
	}
}

// verdict maps a completed comparison onto the exit-code contract.
func verdict(diverged, degraded bool) error {
	switch {
	case diverged:
		return errDivergent
	case degraded:
		return errDegraded
	}
	return nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: reprocmp <hash|compare|shard|group|history|inspect|compact|stats|analyze|evolution|attest|verify-log> [flags]")
	}
	switch args[0] {
	case "hash":
		return cmdHash(ctx, args[1:], out)
	case "compare":
		return cmdCompare(ctx, args[1:], out)
	case "shard":
		return cmdShard(ctx, args[1:], out)
	case "group":
		return cmdGroup(ctx, args[1:], out)
	case "history":
		return cmdHistory(ctx, args[1:], out)
	case "inspect":
		return cmdInspect(ctx, args[1:], out)
	case "compact":
		return cmdCompact(ctx, args[1:], out)
	case "stats":
		return cmdStats(ctx, args[1:], out)
	case "analyze":
		return cmdAnalyze(ctx, args[1:], out)
	case "evolution":
		return cmdEvolution(ctx, args[1:], out)
	case "attest":
		return cmdAttest(ctx, args[1:], out)
	case "verify-log":
		return cmdVerifyLog(ctx, args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdEvolution(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("evolution", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	runID := fs.String("run", "", "run ID")
	eps := fs.Float64("eps", 0, "error bound the metadata was built with")
	chunk := fs.Int("chunk", 64<<10, "chunk size the metadata was built with")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *runID == "" {
		return errors.New("-run is required")
	}
	report, err := repro.Evolution(ctx, store, *runID, repro.Options{Epsilon: *eps, ChunkSize: *chunk})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "state evolution of run %s relative to eps=%g (metadata only):\n", *runID, *eps)
	for _, p := range report.Points {
		fmt.Fprintf(out, "  iter %4d -> %4d rank %3d: %5.1f%% of chunks changed (%d/%d)\n",
			p.FromIter, p.ToIter, p.Rank, 100*p.ChangedFraction(), p.CandidateChunks, p.TotalChunks)
	}
	return nil
}

func cmdAnalyze(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	a := fs.String("a", "", "first checkpoint name")
	b := fs.String("b", "", "second checkpoint name")
	budget := fs.Float64("budget", 0.01, "divergent-element budget for the ε suggestion")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return errors.New("-a and -b are required")
	}
	an, err := repro.Analyze(ctx, store, *a, *b)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "divergence profile of %s vs %s:\n", *a, *b)
	for i := range an.Fields {
		h := &an.Fields[i]
		fmt.Fprintln(out, h.String())
		if eps := h.SuggestEpsilon(*budget); eps > 0 {
			fmt.Fprintf(out, "  suggested eps (<=%.1f%% divergent): %g\n", 100**budget, eps)
		}
	}
	return nil
}

func cmdStats(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	runID := fs.String("run", "", "run ID")
	asJSON := fs.Bool("json", false, "emit the manifest as JSON")
	rescan := fs.Bool("rescan", false, "rebuild the manifest from the store contents")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *runID == "" {
		return errors.New("-run is required")
	}
	m, err := catalog.Load(ctx, store, *runID)
	if err != nil || *rescan {
		m, err = catalog.Scan(ctx, store, *runID, nil)
		if err != nil {
			return err
		}
		if err := catalog.Save(store, m); err != nil {
			return err
		}
	}
	if *asJSON {
		return emitJSON(out, m)
	}
	fmt.Fprintf(out, "run %s: %d checkpoints, %s of data (%s live after compaction)\n",
		m.RunID, len(m.Checkpoints), byteCount(m.TotalDataBytes()), byteCount(m.LiveDataBytes()))
	if m.App != "" {
		fmt.Fprintf(out, "produced by: %s %s\n", m.App, m.Config)
	}
	for _, e := range m.Checkpoints {
		state := "data+meta"
		switch {
		case e.Compacted:
			state = "meta only"
		case !e.HasMetadata:
			state = "data only"
		}
		fmt.Fprintf(out, "  iter %4d rank %3d: %d fields, %s  [%s", e.Iteration, e.Rank,
			e.Fields, byteCount(e.DataBytes), state)
		if e.HasMetadata {
			fmt.Fprintf(out, ", eps=%g chunk=%d meta=%s", e.Epsilon, e.ChunkSize, byteCount(e.MetaBytes))
		}
		fmt.Fprintln(out, "]")
	}
	return nil
}

func byteCount(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func cmdCompact(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	run := fs.String("run", "", "run ID to compact")
	keep := fs.Int("keep", 1, "latest iterations to keep at full data")
	eps := fs.Float64("eps", 0, "error bound for metadata built during the pass")
	chunk := fs.Int("chunk", 64<<10, "chunk size for metadata built during the pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *run == "" {
		return errors.New("-run is required")
	}
	report, err := repro.CompactHistory(ctx, store, *run, *keep, repro.Options{Epsilon: *eps, ChunkSize: *chunk})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compacted %d checkpoints of run %s, freed %d bytes (metadata built for %d)\n",
		len(report.Removed), *run, report.BytesFreed, len(report.MetadataBuilt))
	for _, n := range report.Removed {
		fmt.Fprintf(out, "  %s -> metadata only\n", n)
	}
	return nil
}

func openStore(dir string) (*repro.Store, error) {
	if dir == "" {
		return nil, errors.New("-store is required")
	}
	return repro.NewStore(dir, repro.LustreModel())
}

func methodByName(name string) (repro.Method, error) {
	switch name {
	case "merkle", "":
		return repro.MethodMerkle, nil
	case "direct":
		return repro.MethodDirect, nil
	case "allclose":
		return repro.MethodAllClose, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

func cmdHash(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hash", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	name := fs.String("ckpt", "", "checkpoint name within the store")
	eps := fs.Float64("eps", 0, "absolute error bound")
	chunk := fs.Int("chunk", 64<<10, "chunk size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *name == "" {
		return errors.New("-ckpt is required")
	}
	opts := repro.Options{Epsilon: *eps, ChunkSize: *chunk}
	m, stats, err := repro.BuildAndSave(ctx, store, *name, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built metadata for %s: %d fields, %d bytes, hashed %d bytes in %v (wall)\n",
		*name, len(m.Fields), m.Bytes(), stats.Bytes, stats.Wall)
	fmt.Fprintf(out, "saved as %s\n", repro.MetadataName(*name))
	return nil
}

func cmdCompare(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	a := fs.String("a", "", "first checkpoint name")
	b := fs.String("b", "", "second checkpoint name")
	eps := fs.Float64("eps", 0, "absolute error bound")
	chunk := fs.Int("chunk", 64<<10, "chunk size in bytes")
	methodName := fs.String("method", "merkle", "merkle | direct | allclose")
	verbose := fs.Bool("v", false, "list divergent indices")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report")
	degrade := fs.Bool("degrade", false, "degrade on storage failures instead of aborting (exit 3 when inconclusive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return errors.New("-a and -b are required")
	}
	method, err := methodByName(*methodName)
	if err != nil {
		return err
	}
	opts := repro.Options{Epsilon: *eps, ChunkSize: *chunk, Degrade: *degrade}

	if method == repro.MethodAllClose && !*asJSON {
		ok, err := repro.AllClose(ctx, store, *a, *b, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "allclose(eps=%g): %v\n", *eps, ok)
		if !ok {
			return errDivergent
		}
		return nil
	}
	res, err := method.Run(ctx, store, *a, *b, opts)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := emitJSON(out, toJSONResult(res, *verbose)); err != nil {
			return err
		}
	} else {
		printResult(out, res, *verbose)
	}
	return verdict(res.DiffCount != 0, res.Inconclusive())
}

func printResult(out io.Writer, res *repro.Result, verbose bool) {
	fmt.Fprintf(out, "method=%s diffs=%d elements=%d\n", res.Method, res.DiffCount, res.TotalElements)
	if res.Inconclusive() {
		fmt.Fprintf(out, "DEGRADED: %d candidate chunks unverified (retries=%d); absence of diffs is inconclusive\n",
			res.UnverifiedChunks, res.ReadRetries)
	}
	if res.Method == "merkle" {
		fmt.Fprintf(out, "chunks: %d candidates of %d total, %d really changed (%d false positives)\n",
			res.CandidateChunks, res.TotalChunks, res.ChangedChunks, res.FalsePositiveChunks())
		fmt.Fprintf(out, "metadata: %d bytes per run\n", res.MetadataBytes)
	}
	fmt.Fprintf(out, "read %d bytes; wall %v; virtual %v (%.2f GB/s model throughput)\n",
		res.BytesRead, res.WallElapsed().Round(1000), res.VirtualElapsed().Round(1000), res.ThroughputGBps())
	for _, d := range res.Diffs {
		fmt.Fprintf(out, "field %-4s: %d divergent elements", d.Field, len(d.Indices))
		if verbose {
			fmt.Fprintf(out, " at %v", d.Indices)
		} else if len(d.Indices) > 0 {
			fmt.Fprintf(out, " (first at %d, last at %d)", d.Indices[0], d.Indices[len(d.Indices)-1])
		}
		fmt.Fprintln(out)
	}
}

// cmdShard runs the two-stage Merkle comparison with stage 2 sharded
// across simulated workers (the ShardCompare API), reporting both the
// comparison verdict and the schedule's shape.
func cmdShard(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	a := fs.String("a", "", "first checkpoint name")
	b := fs.String("b", "", "second checkpoint name")
	eps := fs.Float64("eps", 0, "absolute error bound")
	chunk := fs.Int("chunk", 64<<10, "chunk size in bytes")
	workers := fs.Int("workers", 4, "simulated worker count")
	budget := fs.Int64("budget", 0, "per-worker in-flight buffer budget in bytes (0 = default)")
	subtree := fs.Int("subtree", 0, "chunks per work-unit subtree (0 = default)")
	assign := fs.String("assign", "block", "block | placement | random")
	static := fs.Bool("static", false, "disable work stealing")
	seed := fs.Uint64("seed", 0, "seed for the random assignment policy")
	targets := fs.Int("targets", 0, "stripe the store across K simulated OSTs (0 = unstriped)")
	stripe := fs.Int64("stripe", 1<<20, "stripe width in bytes (with -targets)")
	verbose := fs.Bool("v", false, "list divergent indices")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report")
	degrade := fs.Bool("degrade", false, "degrade on storage failures instead of aborting (exit 3 when inconclusive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return errors.New("-a and -b are required")
	}
	var policy repro.ShardAssignment
	switch *assign {
	case "block", "":
		policy = repro.ShardAssignBlock
	case "placement":
		policy = repro.ShardAssignPlacement
	case "random":
		policy = repro.ShardAssignRandom
	default:
		return fmt.Errorf("unknown assignment policy %q", *assign)
	}
	if *targets > 0 {
		if err := store.SetStriping(repro.Striping{Targets: *targets, StripeBytes: *stripe}); err != nil {
			return err
		}
	}
	cfg := repro.ShardConfig{
		Workers:       *workers,
		Budget:        *budget,
		SubtreeChunks: *subtree,
		Assignment:    policy,
		Stealing:      !*static,
		Seed:          *seed,
	}
	opts := repro.Options{Epsilon: *eps, ChunkSize: *chunk, Degrade: *degrade}
	res, stats, err := repro.ShardCompare(ctx, store, *a, *b, cfg, opts)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := emitJSON(out, struct {
			Result jsonResult        `json:"result"`
			Shard  *repro.ShardStats `json:"shard"`
		}{toJSONResult(res, *verbose), stats}); err != nil {
			return err
		}
	} else {
		printResult(out, res, *verbose)
		fmt.Fprintf(out, "shard: %d workers (%s%s), %d units", stats.Workers, stats.Assignment,
			map[bool]string{true: ", stealing", false: ""}[stats.Stealing], stats.Units)
		if stats.Targets > 0 {
			fmt.Fprintf(out, " over %d OSTs", stats.Targets)
		}
		fmt.Fprintf(out, "; makespan %v, %d steals (%d units), peak in-flight %d of %d budget\n",
			stats.MakespanVirtual.Round(1000), stats.Steals, stats.StolenUnits,
			stats.PeakInFlight, stats.BudgetBytes)
		if stats.WorkerFailures > 0 {
			fmt.Fprintf(out, "shard: %d worker(s) died; %d units drained by the coordinator\n",
				stats.WorkerFailures, stats.CoordinatorUnits)
		}
	}
	return verdict(res.DiffCount != 0, res.Inconclusive())
}

// cmdGroup compares N runs' checkpoints against a baseline in one engine
// plan, sharing stage-2 reads between pairs (the GroupCompare API).
func cmdGroup(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("group", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	baseline := fs.String("baseline", "", "baseline checkpoint name")
	runs := fs.String("runs", "", "comma-separated checkpoint names to compare against the baseline")
	eps := fs.Float64("eps", 0, "absolute error bound")
	chunk := fs.Int("chunk", 64<<10, "chunk size in bytes")
	topoName := fs.String("topology", "star", "star | all-pairs")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report")
	degrade := fs.Bool("degrade", false, "degrade on storage failures instead of aborting (exit 3 when inconclusive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *baseline == "" || *runs == "" {
		return errors.New("-baseline and -runs are required")
	}
	topo, err := compare.ParseTopology(*topoName)
	if err != nil {
		return err
	}
	names := strings.Split(*runs, ",")
	rep, err := repro.GroupCompare(ctx, store, *baseline, names, topo, repro.Options{Epsilon: *eps, ChunkSize: *chunk, Degrade: *degrade})
	if err != nil {
		return err
	}
	if *asJSON {
		if err := emitJSON(out, rep); err != nil {
			return err
		}
		return verdict(rep.DiffCount != 0, rep.Inconclusive())
	}
	fmt.Fprintf(out, "group comparison of %d members (%s): %d pairs, %d read ops, %d bytes read\n",
		len(rep.Members), topo, len(rep.Pairs), rep.ReadOps, rep.ReadBytes)
	for _, p := range rep.Pairs {
		status := "match"
		switch {
		case p.Result.DiffCount != 0:
			status = fmt.Sprintf("%d divergent elements", p.Result.DiffCount)
			if p.Result.Degraded {
				status += fmt.Sprintf(" (DEGRADED: %d chunks unverified)", p.Result.UnverifiedChunks)
			}
		case p.Result.Degraded:
			status = fmt.Sprintf("DEGRADED: %d chunks unverified, no proven divergence", p.Result.UnverifiedChunks)
		}
		fmt.Fprintf(out, "  %s vs %s: %s\n", p.NameA, p.NameB, status)
	}
	return verdict(rep.DiffCount != 0, rep.Inconclusive())
}

func cmdHistory(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	runA := fs.String("runa", "", "first run ID")
	runB := fs.String("runb", "", "second run ID")
	eps := fs.Float64("eps", 0, "absolute error bound")
	chunk := fs.Int("chunk", 64<<10, "chunk size in bytes")
	methodName := fs.String("method", "merkle", "merkle | direct | allclose")
	hash := fs.Bool("hash", false, "build any missing metadata first")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report")
	degrade := fs.Bool("degrade", false, "degrade on storage failures instead of aborting (exit 3 when inconclusive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *runA == "" || *runB == "" {
		return errors.New("-runa and -runb are required")
	}
	method, err := methodByName(*methodName)
	if err != nil {
		return err
	}
	opts := repro.Options{Epsilon: *eps, ChunkSize: *chunk, Degrade: *degrade}

	if *hash && method == repro.MethodMerkle {
		for _, run := range []string{*runA, *runB} {
			names, err := repro.History(store, run)
			if err != nil {
				return err
			}
			for _, n := range names {
				if _, _, err := repro.BuildAndSave(ctx, store, n, opts); err != nil {
					return fmt.Errorf("hash %s: %w", n, err)
				}
			}
		}
	}

	report, err := repro.CompareHistories(ctx, store, *runA, *runB, method, opts)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := emitJSON(out, toJSONHistory(report, method, *eps)); err != nil {
			return err
		}
		return verdict(!report.Reproducible(), report.Degraded())
	}
	fmt.Fprintf(out, "compared %d checkpoint pairs of %s vs %s (eps=%g, method=%s)\n",
		len(report.Pairs), *runA, *runB, *eps, method)
	for _, p := range report.Pairs {
		status := "match"
		if p.Result.DiffCount > 0 {
			status = fmt.Sprintf("%d divergent elements", p.Result.DiffCount)
		} else if p.Result.DiffCount < 0 {
			status = "diverged (allclose)"
		}
		if p.Result.Degraded {
			status += fmt.Sprintf(" (DEGRADED: %d chunks unverified)", p.Result.UnverifiedChunks)
		}
		fmt.Fprintf(out, "  iter %4d rank %3d: %s\n", p.Iteration, p.Rank, status)
	}
	if report.Reproducible() {
		if report.Degraded() {
			fmt.Fprintln(out, "no proven divergence, but the comparison degraded: inconclusive")
		} else {
			fmt.Fprintln(out, "runs are reproducible within the error bound")
		}
		return verdict(false, report.Degraded())
	}
	fmt.Fprintf(out, "first divergence: iteration %d, rank %d\n",
		report.FirstDivergence.Iteration, report.FirstDivergence.Rank)
	return errDivergent
}

func cmdInspect(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	name := fs.String("ckpt", "", "checkpoint name within the store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	if *name == "" {
		return errors.New("-ckpt is required")
	}
	r, err := repro.OpenCheckpoint(store, *name)
	if err != nil {
		return err
	}
	defer r.Close()
	meta := r.Meta()
	fmt.Fprintf(out, "checkpoint %s: run=%s iteration=%d rank=%d, %d fields, %d data bytes\n",
		*name, meta.RunID, meta.Iteration, meta.Rank, len(meta.Fields), meta.TotalBytes())
	for i, f := range meta.Fields {
		fmt.Fprintf(out, "  field %d: %-6s %s x %d (%d bytes)\n", i, f.Name, f.DType, f.Count, f.Bytes())
	}
	if m, err := repro.LoadMetadata(ctx, store, *name); err == nil {
		fmt.Fprintf(out, "metadata present: eps=%g, %d bytes\n", m.Epsilon, m.Bytes())
	} else {
		fmt.Fprintln(out, "no metadata saved for this checkpoint")
	}
	return nil
}
