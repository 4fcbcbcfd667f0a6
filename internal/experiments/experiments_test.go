package experiments

import (
	"context"
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// testEnv uses the default scale divisor: small enough to run in seconds,
// large enough that bandwidth terms dominate latency floors (the regime
// the paper's shapes live in).
func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(t.TempDir(), 448) // 7 GB -> ~15.6 MB
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimRight(cell, "%x")
	s = strings.ReplaceAll(s, ",", "")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	env := testEnv(t)
	tab, err := env.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("Table 1 has %d rows", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "500M", "7.0 GB", "phi"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	env := testEnv(t)
	tab, err := env.Table2()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1e-3, 1e-4, 1e-5, 1e-6, 1e-7") {
		t.Error("Table 2 missing error bounds")
	}
}

func TestScaledBytes(t *testing.T) {
	env := testEnv(t)
	small, err := env.ScaledBytes("500M")
	if err != nil {
		t.Fatal(err)
	}
	big, err := env.ScaledBytes("2B")
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("2B scaled (%d) not larger than 500M scaled (%d)", big, small)
	}
	if small%(7*4*1024) != 0 {
		t.Errorf("scaled size %d not chunk-aligned", small)
	}
	if _, err := env.ScaledBytes("nope"); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestMakePairIsReusable(t *testing.T) {
	env := testEnv(t)
	p1, err := env.MakePair("500M", 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := env.MakePair("500M", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NameA != p2.NameA || p1.Bytes != p2.Bytes {
		t.Error("MakePair not stable across calls")
	}
	if len(p1.Fields) != 7 {
		t.Errorf("pair has %d fields", len(p1.Fields))
	}
}

// TestFig5Shape checks the headline comparative claims on one problem
// size: ours >= direct >= allclose, and throughput rising with ε.
func TestFig5Shape(t *testing.T) {
	env := testEnv(t)
	tab, err := env.Fig5(context.Background(), "500M")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(ErrorBounds) {
		t.Fatalf("fig5 has %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		allclose := parseCell(t, row[1])
		direct := parseCell(t, row[2])
		if direct <= allclose {
			t.Errorf("eps=%s: direct %.2f not above allclose %.2f", row[0], direct, allclose)
		}
		// Our best chunk size must beat direct at every ε.
		best := 0.0
		for _, c := range row[3:] {
			if v := parseCell(t, c); v > best {
				best = v
			}
		}
		if best <= direct {
			t.Errorf("eps=%s: our best %.2f not above direct %.2f", row[0], best, direct)
		}
	}
	// Largest ε (row 0) must beat smallest ε (last row) for our method.
	first := parseCell(t, tab.Rows[0][3])
	last := parseCell(t, tab.Rows[len(tab.Rows)-1][3])
	if first <= last {
		t.Errorf("throughput at 1e-3 (%.2f) not above 1e-7 (%.2f) for 4KB chunks", first, last)
	}
}

func TestFig6Breakdown(t *testing.T) {
	env := testEnv(t)
	tab, err := env.Fig6(context.Background(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(ChunkSizes) {
		t.Fatalf("fig6 has %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var sum float64
		for _, c := range row[1:6] {
			sum += parseCell(t, c)
		}
		total := parseCell(t, row[6])
		if total <= 0 {
			t.Errorf("chunk %s: zero total", row[0])
		}
		if diff := sum - total; diff > 0.001*total+0.001 || diff < -0.001*total-0.001 {
			t.Errorf("chunk %s: phases sum %.4f != total %.4f", row[0], sum, total)
		}
	}
}

func TestFig7Effectiveness(t *testing.T) {
	env := testEnv(t)
	marked, fpr, err := env.Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Smaller ε marks at least as much data (column-wise monotonicity).
	for col := 1; col <= len(ChunkSizes); col++ {
		prev := -1.0
		for _, row := range marked.Rows {
			v := parseCell(t, row[col])
			if v < prev-1e-9 {
				t.Errorf("col %d: marked%% not monotone in ε: %v then %v", col, prev, v)
			}
			prev = v
		}
	}
	// FP rates within [0, 1].
	for _, row := range fpr.Rows {
		for _, c := range row[1:] {
			v := parseCell(t, c)
			if v < 0 || v > 1 {
				t.Errorf("FP rate %v out of range", v)
			}
		}
	}
}

func TestFig8GPUFarFasterAndFlat(t *testing.T) {
	env := testEnv(t)
	tab, err := env.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	var gpuTimes []float64
	for _, row := range tab.Rows {
		cpu := parseCell(t, row[1])
		gpu := parseCell(t, row[2])
		if cpu/gpu < 50 {
			t.Errorf("chunk %s: CPU/GPU = %.1f, want large gap", row[0], cpu/gpu)
		}
		gpuTimes = append(gpuTimes, gpu)
	}
	for i := 1; i < len(gpuTimes); i++ {
		ratio := gpuTimes[i] / gpuTimes[0]
		if ratio > 2 || ratio < 0.5 {
			t.Errorf("GPU time varies %.2fx across chunk sizes, want flat", ratio)
		}
	}
}

func TestFig9UringBeatsMmap(t *testing.T) {
	env := testEnv(t)
	tab, err := env.Fig9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		mmapMean := parseCell(t, row[1])
		urMean := parseCell(t, row[3])
		if mmapMean <= urMean {
			t.Errorf("chunk %s: mmap %.3f not slower than io_uring %.3f", row[0], mmapMean, urMean)
		}
	}
}

func TestFig10ScalingShape(t *testing.T) {
	env := testEnv(t)
	// The last count has more processes than pairs: the idle ones add no
	// time and must not turn the per-process mean into NaN.
	tab, err := env.Fig10(context.Background(), 1e-3, 8, []int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("fig10 has %d rows", len(tab.Rows))
	}
	var prevOurs float64
	for i, row := range tab.Rows {
		direct := parseCell(t, row[3])
		ours := parseCell(t, row[4])
		if ours >= direct {
			t.Errorf("procs=%s: our makespan %.3f not below direct %.3f", row[0], ours, direct)
		}
		if i > 0 && i < 3 && ours >= prevOurs {
			t.Errorf("procs=%s: makespan did not shrink (%.3f -> %.3f)", row[0], prevOurs, ours)
		}
		if i == 3 && ours != prevOurs {
			t.Errorf("procs=16 on 8 pairs: makespan %.3f, want the one-pair-a-process %.3f", ours, prevOurs)
		}
		for _, cell := range row[1:5] {
			if v := parseCell(t, cell); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("procs=%s: cell %q is not a positive finite number", row[0], cell)
			}
		}
		prevOurs = ours
	}
	if got := env.Store.Sharers(); got != 1 {
		t.Errorf("sharers left at %d after the study", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := env.Fig10(ctx, 1e-3, 8, []int{2}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled study: err = %v, want context.Canceled", err)
	}
}
