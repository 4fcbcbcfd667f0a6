package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func smokeEnv(t *testing.T) *env {
	t.Helper()
	root, err := findModRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		procs: min(runtime.NumCPU(), maxProcs), smoke: true, seed: 1,
		modRoot: root, work: t.TempDir(), outDir: t.TempDir(), log: os.Stderr,
	}
}

// TestSmokeAllWorkloads runs every workload end to end at smoke scale:
// set-up, warm-up, untraced window, traced pass with every probe, oracle
// checks and tear-down.
func TestSmokeAllWorkloads(t *testing.T) {
	e := smokeEnv(t)
	win := smokeWindows
	if raceEnabled { // several times slower: 1 s no longer holds 100 ops
		win.untraced = 8 * time.Second
	}
	start := time.Now()
	for _, def := range workloads {
		if def.name == "serve_sparse" && testing.Short() {
			continue // builds and runs a reprod child
		}
		res, err := runWorkload(context.Background(), e, def, win)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Failed != 0 || len(res.Violations) != 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed, violations %v", def.name, res.Correct, res.Failed, res.Attempted, res.Violations)
		}
		for _, m := range endToEnd {
			if v, ok := res.EndToEnd[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", def.name, m.name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := res.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", def.name, m.name)
			}
		}
		if res.PerLayer["op_virtual_ms"] <= 0 {
			t.Errorf("%s: op_virtual_ms = %v", def.name, res.PerLayer["op_virtual_ms"])
		}
		if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+def.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", def.name, err)
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, the budget is 15s", d)
	}
	left, _ := os.ReadDir(e.work)
	for _, f := range left {
		if f.IsDir() { // the daemon binary stays until the invocation ends
			t.Errorf("workload directory %s left behind in the scratch space", f.Name())
		}
	}
}

// TestDriverLine checks the one-line JSON object a single-workload run
// ends with: exactly the contract's keys, every metric of the asked kind.
func TestDriverLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr strings.Builder
		args := []string{"--workload", "pair_sparse", "--seed", "3", "--seconds", "1", "--trace", string(rune('0' + trace)), "-smoke"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var got driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Errorf("trace %d: %+v", trace, got)
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(got.Metrics), len(defs))
		}
		for _, m := range defs {
			if v, ok := got.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, m.name, v, m.unit)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-check", "only-one.json"},
		{"stray"},
	} {
		var stdout, stderr strings.Builder
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
