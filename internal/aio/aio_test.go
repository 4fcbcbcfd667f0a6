package aio

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/pfs"
)

// newFile creates a store with a file of deterministic content and returns
// the open file with its content (cold cache).
func newFile(t *testing.T, size int) (*pfs.Store, *pfs.File, []byte) {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(size)))
	rng.Read(data)
	w, err := s.Create("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s.Evict("data.bin")
	f, err := s.Open("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return s, f, data
}

// scatteredReqs builds n requests of reqLen bytes at shuffled offsets.
func scatteredReqs(data []byte, n, reqLen int, seed int64) []ReadReq {
	rng := rand.New(rand.NewSource(seed))
	maxOff := len(data) - reqLen
	reqs := make([]ReadReq, n)
	for i := range reqs {
		reqs[i] = ReadReq{
			Off: int64(rng.Intn(maxOff/reqLen+1)) * int64(reqLen),
			Len: reqLen,
			Buf: make([]byte, reqLen),
			Tag: i,
		}
	}
	return reqs
}

func verifyFilled(t *testing.T, data []byte, reqs []ReadReq) {
	t.Helper()
	for i := range reqs {
		r := &reqs[i]
		want := data[r.Off : r.Off+int64(r.Len)]
		if !bytes.Equal(r.Buf[:r.Len], want) {
			t.Fatalf("request %d (off=%d len=%d): content mismatch", r.Tag, r.Off, r.Len)
		}
	}
}

func TestUringFillsBuffers(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	reqs := scatteredReqs(data, 100, 4096, 1)
	u := NewUring(16)
	cost, elapsed, err := u.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.TotalBytes() == 0 {
		t.Error("no bytes accounted")
	}
	if elapsed <= 0 {
		t.Error("non-positive virtual elapsed")
	}
	if u.Name() != "io_uring" {
		t.Errorf("Name = %q", u.Name())
	}
}

func TestMmapFillsBuffers(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	reqs := scatteredReqs(data, 100, 4096, 2)
	cost, elapsed, err := ReadBatch(context.Background(), Mmap{}, f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.TotalBytes() == 0 || elapsed <= 0 {
		t.Error("mmap accounting empty")
	}
	if (Mmap{}).Name() != "mmap" {
		t.Error("bad name")
	}
}

func TestMmapUnalignedRequests(t *testing.T) {
	_, f, data := newFile(t, 256<<10)
	// Requests that straddle page boundaries at odd offsets.
	reqs := []ReadReq{
		{Off: 100, Len: 5000, Buf: make([]byte, 5000), Tag: 0},
		{Off: 4095, Len: 2, Buf: make([]byte, 2), Tag: 1},
		{Off: 65536 - 1, Len: 8192, Buf: make([]byte, 8192), Tag: 2},
	}
	if _, _, err := ReadBatch(context.Background(), Mmap{}, f, reqs); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
}

func TestUringFasterThanMmapForScatteredReads(t *testing.T) {
	// Fig. 9's structural claim: >3x on cold scattered smalls.
	_, f1, data := newFile(t, 4<<20)
	reqs1 := scatteredReqs(data, 500, 4096, 3)
	_, mmapElapsed, err := ReadBatch(context.Background(), Mmap{}, f1, reqs1)
	if err != nil {
		t.Fatal(err)
	}

	_, f2, data2 := newFile(t, 4<<20)
	reqs2 := scatteredReqs(data2, 500, 4096, 3)
	_, uringElapsed, err := NewUring(64).ReadBatch(context.Background(), f2, reqs2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(mmapElapsed) / float64(uringElapsed)
	if ratio < 3 {
		t.Errorf("mmap/io_uring = %.2f, want >= 3", ratio)
	}
}

func TestWarmBatchCheaper(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	reqs := scatteredReqs(data, 200, 4096, 4)
	u := NewUring(32)
	_, cold, err := u.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := u.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Errorf("warm batch (%v) not cheaper than cold (%v)", warm, cold)
	}
}

func TestEmptyBatch(t *testing.T) {
	_, f, _ := newFile(t, 4096)
	cost, elapsed, err := NewUring(8).ReadBatch(context.Background(), f, nil)
	if err != nil || cost.TotalBytes() != 0 || elapsed != 0 {
		t.Errorf("empty batch: cost=%+v elapsed=%v err=%v", cost, elapsed, err)
	}
}

func TestBadRequests(t *testing.T) {
	_, f, _ := newFile(t, 4096)
	bads := [][]ReadReq{
		{{Off: 0, Len: 0, Buf: nil}},
		{{Off: -1, Len: 4, Buf: make([]byte, 4)}},
		{{Off: 0, Len: 10, Buf: make([]byte, 4)}},
	}
	for i, reqs := range bads {
		if _, _, err := NewUring(4).ReadBatch(context.Background(), f, reqs); err == nil {
			t.Errorf("uring bad request %d accepted", i)
		}
		if _, _, err := ReadBatch(context.Background(), Mmap{}, f, reqs); err == nil {
			t.Errorf("mmap bad request %d accepted", i)
		}
	}
}

func TestNewUringDefaults(t *testing.T) {
	if u := NewUring(0); u.QueueDepth < 1 {
		t.Errorf("defaults not applied: %+v", u)
	}
}

// TestRingClampsParams: a ring or a serial engine left at a zero queue
// depth prices at the default depth and still lands every request.
func TestRingClampsParams(t *testing.T) {
	_, f, data := newFile(t, 8<<10)
	for _, be := range []Backend{&Uring{}, Legacy{}} {
		reqs := scatteredReqs(data, 4, 256, 7)
		_, got, err := ReadBatch(context.Background(), be, f, reqs)
		if err != nil {
			t.Fatal(err)
		}
		verifyFilled(t, data, reqs)
		f.Store().EvictAll()
		_, want, err := NewUring(64).ReadBatch(context.Background(), f, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s at depth 0 prices %v, at the default depth %v", be.Name(), got, want)
		}
		f.Store().EvictAll()
	}
}

func BenchmarkUring500Scattered4K(b *testing.B) {
	s, err := pfs.NewStore(b.TempDir(), pfs.LustreModel())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	w, _ := s.Create("bench.bin")
	w.Write(data)
	w.Close()
	f, _ := s.Open("bench.bin")
	defer f.Close()
	reqs := make([]ReadReq, 500)
	for i := range reqs {
		reqs[i] = ReadReq{Off: int64(i * 8192), Len: 4096, Buf: make([]byte, 4096), Tag: i}
	}
	u := NewUring(64)
	b.SetBytes(500 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.ReadBatch(context.Background(), f, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
