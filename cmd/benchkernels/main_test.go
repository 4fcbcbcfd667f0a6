package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSmokeRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if !report.Smoke {
		t.Error("smoke run not marked as smoke")
	}
	want := []string{"leaf_hash_f32", "leaf_hash_f64", "tree_build", "tree_diff",
		"element_compare_f32", "element_compare_f32_identical", "element_compare_f32_jitter", "element_compare_f32_dense",
		"element_compare_f32_streaks", "element_compare_f32_mixed",
		"element_compare_f64", "element_compare_f64_identical", "element_compare_f64_jitter", "element_compare_f64_dense",
		"element_compare_f64_streaks", "element_compare_f64_mixed"}
	if len(report.Kernels) != len(want) {
		t.Fatalf("got %d kernels, want %d", len(report.Kernels), len(want))
	}
	for i, k := range report.Kernels {
		if k.Name != want[i] {
			t.Errorf("kernel %d: name %q, want %q", i, k.Name, want[i])
		}
		if k.Iters < 1 || k.NsPerOp <= 0 || k.MBPerS <= 0 || k.Bytes <= 0 {
			t.Errorf("kernel %q has degenerate measurement: %+v", k.Name, k)
		}
	}
}

func TestSmokeRunStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	var report Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
