package pfs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir(), LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func writeTestFile(t *testing.T, s *Store, name string, data []byte) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestModels(t *testing.T) {
	for _, m := range []CostModel{LustreModel(), NVMeModel()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := LustreModel()
	bad.PageSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero page size accepted")
	}
	bad2 := LustreModel()
	bad2.ReadBytesPerSec = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newTestStore(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	writeTestFile(t, s, "run1/ckpt.dat", data)

	f, err := s.Open("run1/ckpt.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != int64(len(data)) {
		t.Errorf("Size = %d, want %d", f.Size(), len(data))
	}
	buf := make([]byte, len(data))
	n, _, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(buf, data) {
		t.Error("read data differs from written data")
	}
	if f.Name() != "run1/ckpt.dat" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestColdThenWarmCost(t *testing.T) {
	s := newTestStore(t)
	data := make([]byte, 64<<10)
	writeTestFile(t, s, "a.dat", data)
	s.Evict("a.dat") // cold cache, as every experiment starts

	f, err := s.Open("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8192)

	_, cold, err := f.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Ops != 1 || cold.Bytes != 8192 || cold.CachedBytes != 0 {
		t.Errorf("cold cost = %+v", cold)
	}

	_, warm, err := f.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CachedOps != 1 || warm.CachedBytes != 8192 || warm.Bytes != 0 {
		t.Errorf("warm cost = %+v", warm)
	}

	// Pricing: cold must be far more expensive than warm.
	m := s.Model()
	if m.SerialReadTime(cold, 1) <= m.SerialReadTime(warm, 1) {
		t.Error("cold read not more expensive than warm read")
	}
}

func TestPartialCachedRead(t *testing.T) {
	s := newTestStore(t)
	data := make([]byte, 32<<10)
	writeTestFile(t, s, "b.dat", data)
	s.Evict("b.dat")
	f, err := s.Open("b.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Read overlapping the now-cached first page plus one cold page.
	big := make([]byte, 8192)
	_, c, err := f.ReadAt(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bytes != 4096 || c.CachedBytes != 4096 {
		t.Errorf("partial cost = %+v, want 4096 cold + 4096 cached", c)
	}
	if c.Ops != 1 {
		t.Errorf("partial read ops = %d, want 1 (still one op)", c.Ops)
	}
}

func TestEvict(t *testing.T) {
	s := newTestStore(t)
	writeTestFile(t, s, "c.dat", make([]byte, 16<<10))
	if s.ResidentPages("c.dat") == 0 {
		t.Error("write did not populate cache")
	}
	s.Evict("c.dat")
	if s.ResidentPages("c.dat") != 0 {
		t.Error("Evict left resident pages")
	}
	writeTestFile(t, s, "d.dat", make([]byte, 4096))
	s.EvictAll()
	if s.ResidentPages("d.dat") != 0 {
		t.Error("EvictAll left resident pages")
	}
}

func TestPathValidation(t *testing.T) {
	s := newTestStore(t)
	for _, bad := range []string{"../escape", "/abs/path", "."} {
		if _, err := s.Create(bad); err == nil {
			t.Errorf("Create(%q) accepted", bad)
		}
		if _, err := s.Open(bad); err == nil {
			t.Errorf("Open(%q) accepted", bad)
		}
	}
}

func TestOpenMissing(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Open("nope.dat"); err == nil {
		t.Error("opening a missing file succeeded")
	}
}

func TestRemoveAndList(t *testing.T) {
	s := newTestStore(t)
	writeTestFile(t, s, "x/one.dat", []byte("1"))
	writeTestFile(t, s, "x/two.dat", []byte("2"))
	writeTestFile(t, s, "y/three.dat", []byte("3"))
	names, err := s.List("x/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "x/one.dat" || names[1] != "x/two.dat" {
		t.Errorf("List = %v", names)
	}
	if err := s.Remove("x/one.dat"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("x/one.dat"); err == nil {
		t.Error("double remove succeeded")
	}
	names, _ = s.List("x/")
	if len(names) != 1 {
		t.Errorf("after remove List = %v", names)
	}
}

func TestClosedHandles(t *testing.T) {
	s := newTestStore(t)
	writeTestFile(t, s, "e.dat", make([]byte, 10))
	f, err := s.Open("e.dat")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Error("double close errored")
	}
	if _, _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close = %v", err)
	}
	w, err := s.Create("f.dat")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestSharers(t *testing.T) {
	s := newTestStore(t)
	if s.Sharers() != 1 {
		t.Errorf("default sharers = %d", s.Sharers())
	}
	s.SetSharers(8)
	if s.Sharers() != 8 {
		t.Errorf("sharers = %d", s.Sharers())
	}
	s.SetSharers(0)
	if s.Sharers() != 1 {
		t.Errorf("sharers clamped = %d", s.Sharers())
	}
	// Contention scales the uncached bandwidth term.
	m := s.Model()
	c := Cost{Ops: 1, Bytes: 1 << 30}
	if m.BandwidthTerm(c, 8) <= m.BandwidthTerm(c, 1) {
		t.Error("contention did not slow the bandwidth term")
	}
	if m.BandwidthTerm(c, 0) != m.BandwidthTerm(c, 1) {
		t.Error("sharers=0 not clamped in pricing")
	}
}

func TestCostAccumulation(t *testing.T) {
	var c Cost
	c.Add(Cost{Ops: 1, Bytes: 100})
	c.Add(Cost{CachedOps: 2, CachedBytes: 50})
	if c.Ops != 1 || c.CachedOps != 2 || c.Bytes != 100 || c.CachedBytes != 50 {
		t.Errorf("cost = %+v", c)
	}
	if c.TotalBytes() != 150 {
		t.Errorf("TotalBytes = %d", c.TotalBytes())
	}
}

func TestWriteTimePricing(t *testing.T) {
	m := LustreModel()
	c := Cost{Ops: 10, Bytes: 1 << 20}
	wt := m.WriteTime(c, 1)
	if wt < 10*m.WriteLatency {
		t.Errorf("write time %v below latency floor", wt)
	}
	if m.WriteTime(c, 4) <= wt {
		t.Error("contended write not slower")
	}
	if m.WriteTime(c, 0) != wt {
		t.Error("sharers=0 not clamped")
	}
}

func TestReadFileFull(t *testing.T) {
	s := newTestStore(t)
	data := make([]byte, 100<<10)
	for i := range data {
		data[i] = byte(i)
	}
	writeTestFile(t, s, "g.dat", data)
	s.Evict("g.dat")
	got, cost, err := s.ReadFileFull(context.Background(), "g.dat", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("content mismatch")
	}
	if cost.TotalBytes() != int64(len(data)) {
		t.Errorf("cost bytes = %d, want %d", cost.TotalBytes(), len(data))
	}
	if cost.Ops != 4 { // ceil(100K/32K) blocks, all cold
		t.Errorf("ops = %d, want 4", cost.Ops)
	}
	// Default block size path and missing file path.
	if _, _, err := s.ReadFileFull(context.Background(), "missing.dat", 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestScatteredVsSequentialShape(t *testing.T) {
	// The core PFS property the experiments rely on: reading the same
	// total bytes as many scattered 4 KB ops is priced far above one
	// sequential sweep.
	m := LustreModel()
	scattered := Cost{Ops: 1024, Bytes: 4 << 20}
	sequential := Cost{Ops: 4, Bytes: 4 << 20}
	ratio := float64(m.SerialReadTime(scattered, 1)) / float64(m.SerialReadTime(sequential, 1))
	if ratio < 10 {
		t.Errorf("scattered/sequential = %.1f, want >= 10", ratio)
	}
}

func TestLatencyTermZeroCost(t *testing.T) {
	m := LustreModel()
	if m.LatencyTerm(Cost{}) != 0 || m.BandwidthTerm(Cost{}, 4) != 0 {
		t.Error("zero cost priced nonzero")
	}
	if m.SerialReadTime(Cost{}, 1) != time.Duration(0) {
		t.Error("zero cost read time nonzero")
	}
}

func TestStripingTargetOf(t *testing.T) {
	st := Striping{Targets: 4, StripeBytes: 1 << 20}
	if !st.Enabled() {
		t.Fatal("4-target striping should be enabled")
	}
	cases := []struct {
		off  int64
		want int
	}{
		{0, 0},
		{(1 << 20) - 1, 0},
		{1 << 20, 1},
		{3 << 20, 3},
		{4 << 20, 0}, // round-robin wraps
		{9 << 20, 1},
		{-5, 0}, // negative offsets clamp to the first stripe
	}
	for _, c := range cases {
		if got := st.TargetOf(c.off); got != c.want {
			t.Errorf("TargetOf(%d) = %d, want %d", c.off, got, c.want)
		}
	}
	// Disabled layouts map everything to target 0.
	for _, st := range []Striping{{}, {Targets: 1, StripeBytes: 1 << 20}} {
		if st.Enabled() {
			t.Errorf("%+v should be disabled", st)
		}
		if got := st.TargetOf(42 << 20); got != 0 {
			t.Errorf("disabled TargetOf = %d, want 0", got)
		}
	}
}

func TestStripingValidate(t *testing.T) {
	if err := (Striping{Targets: 8}).Validate(); err == nil {
		t.Fatal("multi-target striping without a stripe width should be rejected")
	}
	if err := (Striping{Targets: 8, StripeBytes: 4096}).Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	s := newTestStore(t)
	if err := s.SetStriping(Striping{Targets: 8}); err == nil {
		t.Fatal("SetStriping should reject an invalid layout")
	}
	if s.Striping().Targets != 0 {
		t.Fatal("rejected layout must leave the store unchanged")
	}
	if err := s.SetStriping(Striping{Targets: 8, StripeBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	if got := s.Striping().Targets; got != 8 {
		t.Fatalf("Striping().Targets = %d, want 8", got)
	}
}

func TestTargetSharersFallback(t *testing.T) {
	s := newTestStore(t)
	s.SetSharers(3)
	// No table: every target falls back to the store-wide factor.
	if got := s.TargetSharers(5); got != 3 {
		t.Fatalf("TargetSharers without table = %d, want 3", got)
	}
	s.SetTargetSharers([]int{1, 4, 0})
	if got := s.TargetSharers(0); got != 1 {
		t.Fatalf("TargetSharers(0) = %d, want 1", got)
	}
	if got := s.TargetSharers(1); got != 4 {
		t.Fatalf("TargetSharers(1) = %d, want 4", got)
	}
	// Zero entries and out-of-range targets fall back.
	if got := s.TargetSharers(2); got != 3 {
		t.Fatalf("TargetSharers(2) = %d, want 3 (fallback)", got)
	}
	if got := s.TargetSharers(99); got != 3 {
		t.Fatalf("TargetSharers(99) = %d, want 3 (fallback)", got)
	}
	// The table is copied, not aliased.
	tbl := []int{7}
	s.SetTargetSharers(tbl)
	tbl[0] = 1
	if got := s.TargetSharers(0); got != 7 {
		t.Fatalf("TargetSharers(0) = %d, want 7 (copied table)", got)
	}
	// Installing a new layout clears the table.
	if err := s.SetStriping(Striping{Targets: 2, StripeBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	if got := s.TargetSharers(0); got != 3 {
		t.Fatalf("TargetSharers after SetStriping = %d, want 3 (cleared)", got)
	}
}
