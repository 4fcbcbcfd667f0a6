package aio

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
)

func TestCoalescingFillsBuffersCorrectly(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	reqs := scatteredReqs(data, 200, 4096, 21)
	c := NewCoalescing(NewUring(64), 8<<10)
	cost, elapsed, err := ReadBatch(context.Background(), c, f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.TotalBytes() == 0 || elapsed <= 0 {
		t.Error("accounting empty")
	}
	if c.Name() != "io_uring+coalesce" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCoalescingReducesOps(t *testing.T) {
	// Perfectly adjacent chunks must collapse into a single operation.
	_, f, data := newFile(t, 512<<10)
	mk := func() []ReadReq {
		reqs := make([]ReadReq, 64)
		for i := range reqs {
			reqs[i] = ReadReq{Off: int64(i * 4096), Len: 4096, Buf: make([]byte, 4096), Tag: i}
		}
		return reqs
	}
	reqs := mk()
	c := NewCoalescing(NewUring(64), 4096)
	cost, _, err := ReadBatch(context.Background(), c, f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.Ops != 1 {
		t.Errorf("adjacent chunks used %d ops, want 1", cost.Ops)
	}

	// The same batch uncoalesced pays one op per chunk.
	_, f2, data2 := newFile(t, 512<<10)
	reqs2 := mk()
	cost2, _, err := NewUring(64).ReadBatch(context.Background(), f2, reqs2)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data2, reqs2)
	if cost2.Ops != 64 {
		t.Errorf("uncoalesced ops = %d, want 64", cost2.Ops)
	}
}

func TestCoalescingRespectsGapLimit(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	// Two clusters far apart: must remain two operations.
	reqs := []ReadReq{
		{Off: 0, Len: 4096, Buf: make([]byte, 4096), Tag: 0},
		{Off: 4096, Len: 4096, Buf: make([]byte, 4096), Tag: 1},
		{Off: 512 << 10, Len: 4096, Buf: make([]byte, 4096), Tag: 2},
	}
	c := NewCoalescing(NewUring(8), 4096)
	cost, _, err := ReadBatch(context.Background(), c, f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.Ops != 2 {
		t.Errorf("ops = %d, want 2 (gap not bridged)", cost.Ops)
	}
}

func TestCoalescingBridgesSmallGaps(t *testing.T) {
	_, f, data := newFile(t, 256<<10)
	// 4 KiB chunks every 8 KiB: 4 KiB holes, bridged by MaxGap 8 KiB.
	reqs := make([]ReadReq, 8)
	for i := range reqs {
		reqs[i] = ReadReq{Off: int64(i * 8192), Len: 4096, Buf: make([]byte, 4096), Tag: i}
	}
	c := NewCoalescing(NewUring(8), 8192)
	cost, _, err := ReadBatch(context.Background(), c, f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.Ops != 1 {
		t.Errorf("ops = %d, want 1 (gaps bridged)", cost.Ops)
	}
	// The bridged gaps cost extra bytes.
	want := int64(7*8192 + 4096)
	if cost.TotalBytes() != want {
		t.Errorf("bytes = %d, want %d including gaps", cost.TotalBytes(), want)
	}
}

func TestCoalescingOverlappingRequests(t *testing.T) {
	_, f, data := newFile(t, 64<<10)
	reqs := []ReadReq{
		{Off: 0, Len: 8192, Buf: make([]byte, 8192), Tag: 0},
		{Off: 4096, Len: 8192, Buf: make([]byte, 8192), Tag: 1}, // overlaps 0
		{Off: 100, Len: 50, Buf: make([]byte, 50), Tag: 2},      // inside 0
	}
	c := NewCoalescing(Mmap{}, 0)
	if _, _, err := ReadBatch(context.Background(), c, f, reqs); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
}

func TestCoalescingSmallBatchPassThrough(t *testing.T) {
	_, f, data := newFile(t, 16<<10)
	reqs := []ReadReq{{Off: 0, Len: 1024, Buf: make([]byte, 1024), Tag: 0}}
	c := NewCoalescing(nil, 0) // defaults
	if _, _, err := ReadBatch(context.Background(), c, f, reqs); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if _, _, err := ReadBatch(context.Background(), c, f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingRejectsBadRequests(t *testing.T) {
	_, f, _ := newFile(t, 4096)
	bad := []ReadReq{
		{Off: 0, Len: 16, Buf: make([]byte, 16)},
		{Off: -5, Len: 16, Buf: make([]byte, 16)},
	}
	if _, _, err := ReadBatch(context.Background(), NewCoalescing(nil, 0), f, bad); err == nil {
		t.Error("bad request accepted")
	}
}

func TestQuickCoalescingEquivalence(t *testing.T) {
	_, f, data := newFile(t, 256<<10)
	c := NewCoalescing(NewUring(32), 4096)
	u := NewUring(32)
	iter := 0
	prop := func(seed int64, n uint8) bool {
		iter++
		count := int(n%32) + 1
		a := scatteredReqs(data, count, 1024, seed)
		b := make([]ReadReq, len(a))
		for i := range a {
			b[i] = a[i]
			b[i].Buf = make([]byte, a[i].Len)
		}
		if _, _, err := ReadBatch(context.Background(), c, f, a); err != nil {
			return false
		}
		if _, _, err := u.ReadBatch(context.Background(), f, b); err != nil {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i].Buf, b[i].Buf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
