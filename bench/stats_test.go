package main

import (
	"math"
	"testing"
	"time"
)

func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
	got, err := percentile(durs(100), 0.90)
	if err != nil || got != 90*time.Millisecond {
		t.Fatalf("p90 of 100 = %v, %v; want 90ms", got, err)
	}
	if _, err := percentile(durs(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(durs(1000), 0.99); err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if _, err := percentile(durs(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	if _, err := percentile(nil, 0.90); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if _, err := median(nil); err == nil {
		t.Fatal("median of no samples accepted")
	}
	if m, _ := median(durs(5)); m != 3*time.Millisecond {
		t.Errorf("odd median = %v", m)
	}
	if m, _ := median(durs(4)); m != 2500*time.Microsecond {
		t.Errorf("even median = %v", m)
	}
	unsorted := []time.Duration{5, 1, 4, 2, 3}
	if m, _ := median(sortDurations(unsorted)); m != 3 || unsorted[0] != 5 {
		t.Errorf("sortDurations must sort a copy: median %v, input %v", m, unsorted)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Fewer than four values: the full range.
	if got, want := spread([]float64{9, 10, 11}), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two values must be 0")
	}
}
