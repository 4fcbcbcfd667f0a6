package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro"
	"repro/internal/synth"
)

// seedStore writes a two-run single-iteration store; run2 diverges beyond
// 1e-5 when diverge is true.
func seedStore(t *testing.T, diverge bool) string {
	t.Helper()
	dir := t.TempDir()
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 8 << 10
	fields := []repro.FieldSpec{{Name: "x", DType: repro.Float32, Count: elems}}
	dataA := synth.FieldF32(elems, 1)
	dataB := append([]byte(nil), dataA...)
	if diverge {
		pert := synth.DefaultPerturb(2)
		pert.MagLo, pert.MagHi = 1e-3, 1e-2
		pert.BlockElems = 512
		pert.ChangedFrac = 0.2
		pert.UntouchedFrac = 0.5
		dataB = synth.PerturbF32(dataA, pert)
	}
	for run, data := range map[string][]byte{"run1": dataA, "run2": dataB} {
		meta := repro.Checkpoint{RunID: run, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := repro.WriteCheckpoint(store, meta, [][]byte{data}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("no args accepted")
	}
	if err := run(context.Background(), []string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	for _, sub := range []string{"hash", "compare", "history", "inspect", "compact"} {
		if err := run(context.Background(), []string{sub}, &out); err == nil {
			t.Errorf("%s without -store accepted", sub)
		}
	}
}

func TestHashCompareHistoryFlow(t *testing.T) {
	dir := seedStore(t, true)
	var out bytes.Buffer

	// hash both checkpoints
	for _, run2 := range []string{"run1", "run2"} {
		err := run(context.Background(), []string{"hash", "-store", dir, "-ckpt", run2 + "/iter0010.rank000.ckpt",
			"-eps", "1e-5", "-chunk", "4096"}, &out)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(out.String(), "built metadata") {
		t.Errorf("hash output: %s", out.String())
	}

	// compare: divergence reported through errDivergent
	out.Reset()
	err := run(context.Background(), []string{"compare", "-store", dir,
		"-a", "run1/iter0010.rank000.ckpt", "-b", "run2/iter0010.rank000.ckpt",
		"-eps", "1e-5", "-chunk", "4096"}, &out)
	if !errors.Is(err, errDivergent) {
		t.Fatalf("compare error = %v, want errDivergent", err)
	}
	if !strings.Contains(out.String(), "divergent elements") {
		t.Errorf("compare output: %s", out.String())
	}

	// direct method agrees
	out.Reset()
	err = run(context.Background(), []string{"compare", "-store", dir,
		"-a", "run1/iter0010.rank000.ckpt", "-b", "run2/iter0010.rank000.ckpt",
		"-eps", "1e-5", "-method", "direct"}, &out)
	if !errors.Is(err, errDivergent) {
		t.Fatalf("direct error = %v", err)
	}

	// allclose answers the boolean
	out.Reset()
	err = run(context.Background(), []string{"compare", "-store", dir,
		"-a", "run1/iter0010.rank000.ckpt", "-b", "run2/iter0010.rank000.ckpt",
		"-eps", "1e-5", "-method", "allclose"}, &out)
	if !errors.Is(err, errDivergent) {
		t.Fatalf("allclose error = %v", err)
	}
	if !strings.Contains(out.String(), "allclose(eps=1e-05): false") {
		t.Errorf("allclose output: %s", out.String())
	}

	// history with -hash finds the divergence
	out.Reset()
	err = run(context.Background(), []string{"history", "-store", dir, "-runa", "run1", "-runb", "run2",
		"-eps", "1e-5", "-chunk", "4096", "-hash"}, &out)
	if !errors.Is(err, errDivergent) {
		t.Fatalf("history error = %v", err)
	}
	if !strings.Contains(out.String(), "first divergence: iteration 10") {
		t.Errorf("history output: %s", out.String())
	}

	// inspect prints the schema
	out.Reset()
	if err := run(context.Background(), []string{"inspect", "-store", dir, "-ckpt", "run1/iter0010.rank000.ckpt"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "f32 x 8192") {
		t.Errorf("inspect output: %s", out.String())
	}

	// compact the older history (everything, keep 0) and verify output
	out.Reset()
	if err := run(context.Background(), []string{"compact", "-store", dir, "-run", "run1", "-keep", "0",
		"-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "metadata only") {
		t.Errorf("compact output: %s", out.String())
	}
}

func TestIdenticalRunsExitClean(t *testing.T) {
	dir := seedStore(t, false)
	var out bytes.Buffer
	for _, r := range []string{"run1", "run2"} {
		if err := run(context.Background(), []string{"hash", "-store", dir, "-ckpt", r + "/iter0010.rank000.ckpt",
			"-eps", "1e-5"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	err := run(context.Background(), []string{"history", "-store", dir, "-runa", "run1", "-runb", "run2", "-eps", "1e-5"}, &out)
	if err != nil {
		t.Fatalf("identical history error = %v", err)
	}
	if !strings.Contains(out.String(), "reproducible within the error bound") {
		t.Errorf("history output: %s", out.String())
	}
}

func TestBadMethodRejected(t *testing.T) {
	dir := seedStore(t, false)
	var out bytes.Buffer
	err := run(context.Background(), []string{"compare", "-store", dir, "-a", "x", "-b", "y",
		"-eps", "1e-5", "-method", "nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("error = %v", err)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := seedStore(t, true)
	var out bytes.Buffer
	for _, r := range []string{"run1", "run2"} {
		if err := run(context.Background(), []string{"hash", "-store", dir, "-ckpt", r + "/iter0010.rank000.ckpt",
			"-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	err := run(context.Background(), []string{"compare", "-store", dir,
		"-a", "run1/iter0010.rank000.ckpt", "-b", "run2/iter0010.rank000.ckpt",
		"-eps", "1e-5", "-chunk", "4096", "-json"}, &out)
	if !errors.Is(err, errDivergent) {
		t.Fatalf("json compare error = %v", err)
	}
	var res jsonResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if res.Method != "merkle" || res.Identical || res.DiffCount == 0 || len(res.Fields) == 0 {
		t.Errorf("json result = %+v", res)
	}
	if res.Fields[0].Field != "x" || res.Fields[0].Count == 0 {
		t.Errorf("json field = %+v", res.Fields[0])
	}
	if len(res.Fields[0].Indices) != 0 {
		t.Error("indices emitted without -v")
	}

	out.Reset()
	err = run(context.Background(), []string{"history", "-store", dir, "-runa", "run1", "-runb", "run2",
		"-eps", "1e-5", "-chunk", "4096", "-json"}, &out)
	if !errors.Is(err, errDivergent) {
		t.Fatalf("json history error = %v", err)
	}
	var hist jsonHistory
	if err := json.Unmarshal(out.Bytes(), &hist); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if hist.Reproducible || hist.FirstDivergence == nil || hist.FirstDivergence.Iteration != 10 {
		t.Errorf("json history = %+v", hist)
	}
}

func TestStatsSubcommand(t *testing.T) {
	dir := seedStore(t, false)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"hash", "-store", dir, "-ckpt", "run1/iter0010.rank000.ckpt",
		"-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"stats", "-store", dir, "-run", "run1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "run run1: 1 checkpoints") || !strings.Contains(s, "data+meta") {
		t.Errorf("stats output: %s", s)
	}
	// JSON form parses.
	out.Reset()
	if err := run(context.Background(), []string{"stats", "-store", dir, "-run", "run1", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if m["runId"] != "run1" {
		t.Errorf("manifest runId = %v", m["runId"])
	}
	// Missing run errors.
	if err := run(context.Background(), []string{"stats", "-store", dir, "-run", "nope"}, &out); err == nil {
		t.Error("missing run accepted")
	}
	if err := run(context.Background(), []string{"stats", "-store", dir}, &out); err == nil {
		t.Error("missing -run accepted")
	}
}

func TestAnalyzeSubcommand(t *testing.T) {
	dir := seedStore(t, true)
	var out bytes.Buffer
	err := run(context.Background(), []string{"analyze", "-store", dir,
		"-a", "run1/iter0010.rank000.ckpt", "-b", "run2/iter0010.rank000.ckpt"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "divergence profile") || !strings.Contains(s, "suggested eps") {
		t.Errorf("analyze output: %s", s)
	}
	if err := run(context.Background(), []string{"analyze", "-store", dir}, &out); err == nil {
		t.Error("missing -a/-b accepted")
	}
}

func TestEvolutionSubcommand(t *testing.T) {
	dir := seedStore(t, true) // single iteration: evolution needs >= 2
	var out bytes.Buffer
	if err := run(context.Background(), []string{"evolution", "-store", dir, "-run", "run1", "-eps", "1e-5"}, &out); err == nil {
		t.Error("single-checkpoint run accepted")
	}
	// Add a second iteration with metadata for both.
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	fields := []repro.FieldSpec{{Name: "x", DType: repro.Float32, Count: 8 << 10}}
	meta := repro.Checkpoint{RunID: "run1", Iteration: 20, Rank: 0, Fields: fields}
	if _, err := repro.WriteCheckpoint(store, meta, [][]byte{synth.FieldF32(8<<10, 9)}); err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-5, ChunkSize: 4096}
	for _, it := range []int{10, 20} {
		if _, _, err := repro.BuildAndSave(context.Background(), store, repro.CheckpointName("run1", it, 0), opts); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := run(context.Background(), []string{"evolution", "-store", dir, "-run", "run1",
		"-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "iter   10 ->   20") {
		t.Errorf("evolution output: %s", out.String())
	}
}
