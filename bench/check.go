package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json: the benchmark's contract with the driver
// and the source of the regression bounds -check applies.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // not worse, but a side's run-to-run spread exceeds the bound
)

// checkRow compares one metric of one workload between two result files.
type checkRow struct {
	Workload, Metric string
	A, B             float64 // medians over each file's runs
	Change           float64 // share of A by which B is worse (negative: better)
	SpreadA, SpreadB float64
	Bound            float64
	Verdict          string
}

// values collects one metric of one workload over a file's runs.
func values(f *resultFile, workload string, get func(*workloadResult) (float64, bool)) []float64 {
	var out []float64
	for _, run := range f.Runs {
		for _, w := range run {
			if w.Name == workload {
				if v, ok := get(w); ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// judge builds one row. lowerBetter says which direction is worse.
func judge(workload, metric string, a, b []float64, lowerBetter bool, bound float64) checkRow {
	row := checkRow{
		Workload: workload, Metric: metric,
		A: medianFloat(a), B: medianFloat(b),
		SpreadA: spread(a), SpreadB: spread(b),
		Bound: bound, Verdict: verdictOK,
	}
	//lint:ignore epsflow exact zero tests: one guards the division, the other spots a count that appeared
	if zeroA, zeroB := row.A == 0, row.B == 0; !zeroA {
		row.Change = (row.B - row.A) / row.A
	} else if !zeroB {
		row.Change = 1 // from nothing to something: all of it is new
	}
	if !lowerBetter {
		row.Change = -row.Change
	}
	//lint:ignore floatcmp,epsflow regression bounds are exact gates, not ε comparisons
	worse := row.Change > bound
	//lint:ignore floatcmp,epsflow regression bounds are exact gates, not ε comparisons
	noisy := row.SpreadA > bound || row.SpreadB > bound
	switch {
	case worse:
		row.Verdict = verdictWorse
	case noisy:
		row.Verdict = verdictUnresolved
	}
	return row
}

// check compares result file b (the change) against a (the parent): one
// row per workload and end-to-end metric, one for the failed share (any
// increase is worse), and one per exactly repeating per-layer count.
func check(spec *benchSpec, a, b *resultFile) ([]checkRow, error) {
	var rows []checkRow
	for _, w := range spec.Workloads {
		ran := func(*workloadResult) (float64, bool) { return 0, true }
		if len(values(a, w.Name, ran)) == 0 || len(values(b, w.Name, ran)) == 0 {
			continue // a file of a single-workload run compares on what it has
		}
		for _, m := range spec.EndToEnd {
			get := func(r *workloadResult) (float64, bool) { v, ok := r.EndToEnd[m.Name]; return v, ok }
			rows = append(rows, judge(w.Name, m.Name, values(a, w.Name, get), values(b, w.Name, get), m.Better == "lower", m.Bound))
		}
		failed := func(r *workloadResult) (float64, bool) {
			return float64(r.Failed) / float64(max(r.Attempted, 1)), true
		}
		rows = append(rows, judge(w.Name, "failed_frac", values(a, w.Name, failed), values(b, w.Name, failed), true, 0))
		for _, m := range perLayer {
			bound, exact := exactPerLayer[m.name]
			if !exact {
				continue
			}
			get := func(r *workloadResult) (float64, bool) { v, ok := r.PerLayer[m.name]; return v, ok }
			va, vb := values(a, w.Name, get), values(b, w.Name, get)
			if len(va) > 0 && len(vb) > 0 {
				rows = append(rows, judge(w.Name, m.name, va, vb, true, bound))
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two files share no workload")
	}
	return rows, nil
}

// runCheck is `bench -check A.json B.json`: it prints the rows and
// returns the process exit code, 1 when any row is worse.
func runCheck(specPath, pathA, pathB string, w io.Writer) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 2, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 2, err
	}
	if a.Stamp.Seed != b.Stamp.Seed || a.Stamp.Seconds != b.Stamp.Seconds || a.Stamp.Smoke != b.Stamp.Smoke {
		return 2, fmt.Errorf("settings differ (seed %d/%d, seconds %d/%d, smoke %v/%v): the files do not compare",
			a.Stamp.Seed, b.Stamp.Seed, a.Stamp.Seconds, b.Stamp.Seconds, a.Stamp.Smoke, b.Stamp.Smoke)
	}
	rows, err := check(spec, a, b)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "A: %s (%d runs, %s)\nB: %s (%d runs, %s)\n", pathA, len(a.Runs), a.Stamp.GitHead, pathB, len(b.Runs), b.Stamp.GitHead)
	fmt.Fprintf(w, "%-13s %-24s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse%", "sprA%", "sprB%", "bound%", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-24s %12.4f %12.4f %8.2f %8.2f %8.2f %7.2f  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	return code, nil
}
