package stream

import (
	"reflect"
	"testing"

	"repro/internal/aio"
)

// TestBatchFreeListIsBounded: the free list takes back at most freeBatches
// batches and none over batchMax bytes, and a batch comes back out empty —
// no request, no run, no landed bytes behind its length — with its
// capacity kept.
func TestBatchFreeListIsBounded(t *testing.T) {
	drain := func() (batches []*batch) {
		batchFree.Lock()
		defer batchFree.Unlock()
		batches, batchFree.batches = batchFree.batches, nil
		return batches
	}
	kept := drain()
	defer func() {
		drain()
		batchFree.batches = kept
	}()

	if got := reflect.TypeOf(aio.ReadReq{}).Size(); got != reqBytes {
		t.Errorf("a ReadReq is %d bytes, the bound counts %d", got, reqBytes)
	}
	big := getBatch()
	big.reqs = make([]aio.ReadReq, 0, batchMax/reqBytes+1)
	putBatch(big)
	if n := freeBatchCount(); n != 0 {
		t.Fatalf("a batch over %d bytes was kept", batchMax)
	}

	var out []*batch
	for i := 0; i < freeBatches+3; i++ {
		out = append(out, getBatch())
	}
	for _, b := range out {
		b.reqs = append(b.reqs, aio.ReadReq{Off: 4096, Len: 3, Buf: []byte{1, 2, 3}, Tag: 7})
		b.runs = append(b.runs, aio.ReadReq{Off: 4096, Len: 3, Tag: 7})
		putBatch(b)
	}
	if n := freeBatchCount(); n != freeBatches {
		t.Fatalf("free list holds %d batches, bound %d", n, freeBatches)
	}
	b := getBatch()
	if len(b.reqs) != 0 || len(b.runs) != 0 || cap(b.reqs) == 0 || cap(b.runs) == 0 {
		t.Fatalf("a recycled batch has %d requests and %d runs (capacity %d, %d), want none and its capacity kept",
			len(b.reqs), len(b.runs), cap(b.reqs), cap(b.runs))
	}
	if q := b.reqs[:1][0]; !reflect.DeepEqual(q, aio.ReadReq{}) {
		t.Errorf("a recycled batch kept request %+v behind its length", q)
	}
}
