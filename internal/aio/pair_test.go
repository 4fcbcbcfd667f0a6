package aio

import (
	"context"
	"testing"

	"repro/internal/pfs"
)

// newPairFiles creates one store holding two files with distinct
// deterministic contents (cold cache).
func newPairFiles(t *testing.T, size int) (*pfs.Store, *pfs.File, *pfs.File, []byte, []byte) {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, seed byte) []byte {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)*3 + seed
		}
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
		s.Evict(name)
		return data
	}
	dataA := write("runA.bin", 1)
	dataB := write("runB.bin", 2)
	fA, err := s.Open("runA.bin")
	if err != nil {
		t.Fatal(err)
	}
	fB, err := s.Open("runB.bin")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fA.Close(); fB.Close() })
	return s, fA, fB, dataA, dataB
}

func TestReadBatchPairFillsBothRuns(t *testing.T) {
	_, fA, fB, dataA, dataB := newPairFiles(t, 1<<20)
	u := NewUring(64)
	reqsA := distinctReqs(48)
	reqsB := distinctReqs(48)
	cost, elapsed, err := u.ReadBatchPair(context.Background(), fA, fB, reqsA, reqsB)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, dataA, reqsA)
	verifyFilled(t, dataB, reqsB)
	if cost.Ops != 96 {
		t.Errorf("combined cold ops = %d, want 96", cost.Ops)
	}
	if elapsed <= 0 {
		t.Errorf("pair elapsed = %v", elapsed)
	}
}

// TestPairCheaperThanSerialBatches checks the pair pricing claim: one
// overlapped A+B batch is strictly cheaper on the virtual clock than the
// same ring's two batches priced one after the other, because the pair
// forms one deep queue (fewer latency rounds at equal queue depth) and
// pays the final-completion latency once.
func TestPairCheaperThanSerialBatches(t *testing.T) {
	store, fA, fB, dataA, dataB := newPairFiles(t, 1<<20)
	mkReqs := func() ([]ReadReq, []ReadReq) {
		return distinctReqs(64), distinctReqs(64)
	}

	reqsA, reqsB := mkReqs()
	u := NewUring(64)
	costA, tA, err := u.ReadBatch(context.Background(), fA, reqsA)
	if err != nil {
		t.Fatal(err)
	}
	costB, tB, err := u.ReadBatch(context.Background(), fB, reqsB)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, dataA, reqsA)
	verifyFilled(t, dataB, reqsB)
	serial := tA + tB

	store.EvictAll()
	reqsA, reqsB = mkReqs()
	pairCost, pair, err := u.ReadBatchPair(context.Background(), fA, fB, reqsA, reqsB)
	if err != nil {
		t.Fatal(err)
	}
	if want := costA.Ops + costB.Ops; pairCost.Ops != want {
		t.Errorf("pair ops = %d, serial ops = %d", pairCost.Ops, want)
	}
	if pair >= serial {
		t.Errorf("pair virtual %v not cheaper than serial %v", pair, serial)
	}
}

func TestDefaultSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() is not a singleton")
	}
	_, f, data := newFile(t, 1<<20)
	reqs := scatteredReqs(data, 16, 4096, 3)
	if _, _, err := Default().ReadBatch(context.Background(), f, reqs); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
}

// distinctReqs builds n non-overlapping page-distinct requests.
func distinctReqs(n int) []ReadReq {
	reqs := make([]ReadReq, n)
	for i := range reqs {
		reqs[i] = ReadReq{Off: int64(i) * 8192, Len: 4096, Buf: make([]byte, 4096), Tag: i}
	}
	return reqs
}
