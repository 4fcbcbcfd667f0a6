package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// BENCHMARK.json is what the driver reads and spec.go is what the program
// prints; a metric in one and not the other would be refused or ignored.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, g.Name, g.Unit, m.name, m.unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			//lint:ignore floatcmp,epsflow the contract's limits are exact gates
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract wants setup_s [s, lower], got %+v", spec.EndToEnd[0])
	}
	if want := []string{"go", "run", "./bench"}; !slices.Equal(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}
	for name := range exactPerLayer {
		if !slices.ContainsFunc(perLayer, func(m metricDef) bool { return m.name == name }) {
			t.Errorf("exactPerLayer names %q, which is no per-layer metric", name)
		}
	}
}
