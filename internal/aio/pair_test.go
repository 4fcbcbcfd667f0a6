package aio

import (
	"bytes"
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
// Legacy engine's two serial batches, because the pair forms one deep
// queue (fewer latency rounds at equal queue depth) and pays the
// final-completion latency once.
func TestPairCheaperThanSerialBatches(t *testing.T) {
	store, fA, fB, dataA, dataB := newPairFiles(t, 1<<20)
	mkReqs := func() ([]ReadReq, []ReadReq) {
		return distinctReqs(64), distinctReqs(64)
	}

	reqsA, reqsB := mkReqs()
	legacy := Legacy{QueueDepth: 64}
	costA, tA, err := ReadBatch(context.Background(), legacy, fA, reqsA)
	if err != nil {
		t.Fatal(err)
	}
	costB, tB, err := ReadBatch(context.Background(), legacy, fB, reqsB)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, dataA, reqsA)
	verifyFilled(t, dataB, reqsB)
	serial := tA + tB

	store.EvictAll()
	reqsA, reqsB = mkReqs()
	u := NewUring(64)
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

func TestLegacyMatchesUringResults(t *testing.T) {
	store, f, data := newFile(t, 1<<20)
	reqsL := distinctReqs(40)
	legacy := Legacy{}
	costL, _, err := ReadBatch(context.Background(), legacy, f, reqsL)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqsL)

	store.EvictAll()
	u := NewUring(64)
	reqsU := distinctReqs(40)
	costU, _, err := u.ReadBatch(context.Background(), f, reqsU)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqsU)
	for i := range reqsL {
		if !bytes.Equal(reqsL[i].Buf, reqsU[i].Buf) {
			t.Fatalf("request %d: legacy and uring bytes differ", i)
		}
	}
	if costL != costU {
		t.Errorf("cold costs differ: legacy %+v, uring %+v", costL, costU)
	}
}

// TestCoalescingPairEquivalence checks the pair path of the coalescing
// wrapper: identical bytes delivered, strictly fewer PFS ops than the
// uncoalesced pair on a clustered request pattern.
func TestCoalescingPairEquivalence(t *testing.T) {
	store, fA, fB, dataA, dataB := newPairFiles(t, 1<<20)
	clustered := func(data []byte) []ReadReq {
		var reqs []ReadReq
		for cluster := 0; cluster < 8; cluster++ {
			base := int64(cluster) * 96 << 10
			for j := 0; j < 4; j++ {
				off := base + int64(j)*4096
				reqs = append(reqs, ReadReq{Off: off, Len: 4096, Buf: make([]byte, 4096), Tag: len(reqs)})
			}
		}
		return reqs
	}

	u := NewUring(64)
	plainA, plainB := clustered(dataA), clustered(dataB)
	plainCost, _, err := u.ReadBatchPair(context.Background(), fA, fB, plainA, plainB)
	if err != nil {
		t.Fatal(err)
	}

	store.EvictAll()
	co := NewCoalescing(u, 16<<10)
	coA, coB := clustered(dataA), clustered(dataB)
	coCost, _, err := readBatchPair(context.Background(), co, fA, fB, coA, coB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainA {
		if !bytes.Equal(plainA[i].Buf, coA[i].Buf) || !bytes.Equal(plainB[i].Buf, coB[i].Buf) {
			t.Fatalf("request %d: coalesced pair bytes differ from plain", i)
		}
	}
	verifyFilled(t, dataA, coA)
	verifyFilled(t, dataB, coB)
	if coCost.Ops >= plainCost.Ops {
		t.Errorf("coalesced pair ops = %d, plain = %d", coCost.Ops, plainCost.Ops)
	}
	if coCost.Ops != 16 {
		t.Errorf("coalesced pair ops = %d, want 16 (8 clusters per run)", coCost.Ops)
	}
}

// TestCoalescingPairSerialInner drives the pair path over an inner backend
// without pair support (Mmap) to cover the serial fallback.
func TestCoalescingPairSerialInner(t *testing.T) {
	_, fA, fB, dataA, dataB := newPairFiles(t, 1<<20)
	co := NewCoalescing(Mmap{}, 16<<10)
	reqsA := scatteredReqs(dataA, 24, 4096, 31)
	reqsB := scatteredReqs(dataB, 24, 4096, 32)
	if _, _, err := readBatchPair(context.Background(), co, fA, fB, reqsA, reqsB); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, dataA, reqsA)
	verifyFilled(t, dataB, reqsB)
}
