package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fileOf(vals map[string][]float64, failed int) *resultFile {
	f := &resultFile{Stamp: stamp{Seed: 1, Seconds: 10}}
	n := 0
	for _, v := range vals {
		n = max(n, len(v))
	}
	for r := 0; r < n; r++ {
		w := &workloadResult{Name: "pair_sparse", Attempted: 100, Failed: failed, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		for name, v := range vals {
			if _, ok := exactPerLayer[name]; ok {
				w.PerLayer[name] = v[r]
			} else {
				w.EndToEnd[name] = v[r]
			}
		}
		f.Runs = append(f.Runs, []*workloadResult{w})
	}
	return f
}

// testSpec fixes the bounds the verdict tests are written against, so that
// re-measuring the bounds in BENCHMARK.json does not move them.
const testSpec = `{
  "workloads": [{"name": "pair_sparse", "why": ""}, {"name": "pair_dense", "why": ""}],
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_wall_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "op_wall_ms_p90", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
  ]
}`

func writeTestSpec(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(p, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func verdicts(t *testing.T, a, b *resultFile) map[string]string {
	t.Helper()
	spec, err := loadSpec(writeTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := check(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, r := range rows {
		if r.Workload != "pair_sparse" {
			t.Errorf("row for workload %q, which neither file has", r.Workload)
		}
		out[r.Metric] = r.Verdict
	}
	return out
}

func TestCheckVerdicts(t *testing.T) {
	base := map[string][]float64{
		"setup_s":        {1.0, 1.0, 1.0},
		"op_wall_ms_p50": {5.0, 5.05, 4.95},
		"op_wall_ms_p90": {8.0, 8.1, 7.9},
		"ops_per_s":      {200, 201, 199},
		"op_virtual_ms":  {51.25, 51.25, 51.25},
	}
	same := verdicts(t, fileOf(base, 0), fileOf(base, 0))
	for m, v := range same {
		if v != verdictOK {
			t.Errorf("identical files: %s is %s", m, v)
		}
	}
	if len(same) != len(endToEnd)+2 { // + failed_frac + op_virtual_ms
		t.Errorf("%d rows for one workload: %v", len(same), same)
	}

	change := map[string][]float64{
		"setup_s":        {1.2, 1.2, 1.2},       // +20 % < 25 % bound
		"op_wall_ms_p50": {6.0, 6.1, 5.9},       // +20 %: worse
		"op_wall_ms_p90": {8.0, 12.0, 6.0},      // median same, spread 75 %: unresolved
		"ops_per_s":      {150, 151, 149},       // -25 %, higher is better: worse
		"op_virtual_ms":  {51.35, 51.35, 51.35}, // +0.2 % > 0.1 %: worse
	}
	got := verdicts(t, fileOf(base, 0), fileOf(change, 1))
	want := map[string]string{
		"setup_s": verdictOK, "op_wall_ms_p50": verdictWorse, "op_wall_ms_p90": verdictUnresolved,
		"ops_per_s": verdictWorse, "op_virtual_ms": verdictWorse, "failed_frac": verdictWorse,
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %s, want %s", m, got[m], v)
		}
	}
	// An improvement is never worse, in either direction.
	better := verdicts(t, fileOf(change, 1), fileOf(base, 0))
	for _, m := range []string{"op_wall_ms_p50", "ops_per_s", "op_virtual_ms", "failed_frac"} {
		if better[m] != verdictOK {
			t.Errorf("improvement in %s judged %s", m, better[m])
		}
	}
}

func TestRunCheckExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		p := filepath.Join(dir, name)
		if err := f.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := map[string][]float64{"setup_s": {1}, "op_wall_ms_p50": {5}, "op_wall_ms_p90": {8}, "ops_per_s": {200}}
	slow := map[string][]float64{"setup_s": {1}, "op_wall_ms_p50": {9}, "op_wall_ms_p90": {8}, "ops_per_s": {200}}
	a, b := write("a.json", fileOf(base, 0)), write("b.json", fileOf(slow, 0))
	spec := writeTestSpec(t)

	var out strings.Builder
	if code, err := runCheck(spec, a, a, &out); code != 0 || err != nil {
		t.Errorf("same file: exit %d, %v", code, err)
	}
	if code, err := runCheck(spec, a, b, &out); code != 1 || err != nil {
		t.Errorf("slower file: exit %d, %v", code, err)
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no %q row printed:\n%s", verdictWorse, out.String())
	}

	// An edited file no longer matches its record digest.
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(dir, "edited.json")
	if err := os.WriteFile(edited, []byte(strings.Replace(string(data), `"op_wall_ms_p50": 5`, `"op_wall_ms_p50": 4`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := runCheck(spec, a, edited, &out); code != 2 || err == nil {
		t.Errorf("edited file accepted: exit %d, %v", code, err)
	}

	other := fileOf(base, 0)
	other.Stamp.Seed = 2
	if code, err := runCheck(spec, a, write("seed2.json", other), &out); code != 2 || err == nil {
		t.Errorf("files of different seeds compared: exit %d, %v", code, err)
	}
}
