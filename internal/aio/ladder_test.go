package aio

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/retry"
)

var (
	errBlip = errors.New("storage blip")
	errDead = errors.New("dead target")
)

// faultyBackend fails its first len(script) reads with the scripted errors
// (nil entries succeed), then delegates to Mmap. With pair set it is a
// PairReader too. Every read reports io of one millisecond per call, so
// what the ladder charges is exact.
type faultyBackend struct {
	script []error
	calls  int
	// batches counts the batches of the last read: 2 for an overlapped
	// pair, 1 for a serial read.
	batches int
}

func (b *faultyBackend) Name() string { return "faulty" }

func (b *faultyBackend) next() error {
	b.calls++
	if b.calls <= len(b.script) {
		return b.script[b.calls-1]
	}
	return nil
}

func (b *faultyBackend) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	b.batches = 1
	if err := b.next(); err != nil {
		return pfs.Cost{}, time.Millisecond, err
	}
	cost, _, err := Mmap{}.ReadBatch(ctx, f, reqs)
	return cost, time.Millisecond, err
}

// pairBackend adds the overlapped pair path to faultyBackend.
type pairBackend struct{ faultyBackend }

func (b *pairBackend) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	b.batches = 2
	if err := b.next(); err != nil {
		return pfs.Cost{}, time.Millisecond, err
	}
	cost, _, err := Mmap{}.ReadBatch(ctx, fA, reqsA)
	if err == nil {
		var costB pfs.Cost
		costB, _, err = Mmap{}.ReadBatch(ctx, fB, reqsB)
		cost.Add(costB)
	}
	return cost, time.Millisecond, err
}

// TestReadLadder drives every rung of the read ladder against scripted
// faults: what is retried, what it costs, when the fresh ring steps in,
// and what is never degraded.
func TestReadLadder(t *testing.T) {
	pol := retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}
	backoff := func(retries int) time.Duration {
		var d time.Duration
		for r := 1; r <= retries; r++ {
			step, _ := pol.Next(r)
			d += step
		}
		return d
	}
	blip := retry.Mark(errBlip, retry.Transient)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		ctx     context.Context
		pol     retry.Policy
		script  []error
		pair    bool // backend is a PairReader
		batches int  // 1 or 2 files

		wantErr      error // matched with errors.Is; nil = success
		wantCalls    int
		wantRetries  int
		wantIO       time.Duration
		wantFellBack bool
		wantPairRead bool // the last backend read was one overlapped pair
		wantPermErr  bool // the error must classify Permanent
		// wantFreshOps is the PFS read ops the fresh ring must have issued:
		// exactly one pass over the requests, or none.
		wantFreshOps int64
	}{
		{name: "clean", pol: pol, batches: 1, wantCalls: 1, wantIO: time.Millisecond},
		{name: "transient retried and counted, backoff charged to io", pol: pol, batches: 1,
			script: []error{blip, blip}, wantCalls: 3, wantRetries: 2, wantIO: time.Millisecond + backoff(2)},
		{name: "exhausted budget is permanent", pol: pol, batches: 1,
			script: []error{blip, blip, blip, blip}, wantErr: errBlip, wantPermErr: true,
			wantCalls: 3, wantRetries: 2, wantIO: time.Millisecond + backoff(2)},
		{name: "zero policy never retries", batches: 1,
			script: []error{blip}, wantErr: errBlip, wantCalls: 1, wantIO: time.Millisecond},
		{name: "permanent error returns at once, by kind", pol: pol, batches: 1,
			script: []error{errDead}, wantErr: errDead, wantPermErr: true, wantCalls: 1, wantIO: time.Millisecond},
		{name: "ring closed: exactly one fresh-ring read", pol: pol, batches: 1,
			script: []error{ErrRingClosed, ErrRingClosed}, wantCalls: 1, wantFellBack: true, wantFreshOps: 4},
		{name: "ring closed after a retry", pol: pol, batches: 1,
			script: []error{blip, ErrRingClosed}, wantCalls: 2, wantRetries: 1, wantFellBack: true, wantFreshOps: 4},
		{name: "two files overlap on a pair reader", pol: pol, pair: true, batches: 2,
			wantCalls: 1, wantIO: time.Millisecond, wantPairRead: true},
		{name: "two files serialize without one", pol: pol, batches: 2,
			wantCalls: 2, wantIO: 2 * time.Millisecond},
		{name: "ring closed under a pair: fresh ring reads both files", pol: pol, pair: true, batches: 2,
			script: []error{ErrRingClosed}, wantCalls: 1, wantFellBack: true, wantPairRead: true, wantFreshOps: 8},
		{name: "canceled context is never degraded", ctx: canceled, pol: pol, batches: 1,
			script: []error{ErrRingClosed}, wantErr: context.Canceled, wantCalls: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, f, data := newFile(t, 64<<10)
			var reqsets [][]ReadReq
			var batches []Batch
			for b := 0; b < tc.batches; b++ {
				reqs := scatteredReqs(data, 4, 4096, int64(7+b))
				reqsets = append(reqsets, reqs)
				batches = append(batches, Batch{File: f, Reqs: reqs})
			}
			var be Backend
			var fb *faultyBackend
			if tc.pair {
				pb := &pairBackend{faultyBackend{script: tc.script}}
				be, fb = pb, &pb.faultyBackend
			} else {
				fb = &faultyBackend{script: tc.script}
				be = fb
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}

			// The scripted backend reads through Mmap; only a fresh ring
			// goes to the store while its reads are failing.
			ops0, _ := store.ReadStats()
			rd, err := ReadLadder(ctx, be, tc.pol, batches...)
			ops1, _ := store.ReadStats()

			if tc.wantErr == nil && err != nil {
				t.Fatalf("err = %v, want success", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantPermErr && retry.Classify(err) != retry.Permanent {
				t.Errorf("error classifies %v, want Permanent", retry.Classify(err))
			}
			if fb.calls != tc.wantCalls {
				t.Errorf("backend read %d times, want %d", fb.calls, tc.wantCalls)
			}
			if rd.Retries != tc.wantRetries {
				t.Errorf("Retries = %d, want %d", rd.Retries, tc.wantRetries)
			}
			if rd.FellBack != tc.wantFellBack {
				t.Errorf("FellBack = %v, want %v", rd.FellBack, tc.wantFellBack)
			}
			if tc.wantCalls > 0 && (fb.batches == 2) != tc.wantPairRead {
				t.Errorf("last backend read covered %d batches, want pair=%v", fb.batches, tc.wantPairRead)
			}
			if tc.wantFellBack {
				if got := ops1 - ops0; got != tc.wantFreshOps {
					t.Errorf("fresh ring issued %d PFS reads, want %d (one pass)", got, tc.wantFreshOps)
				}
				if rd.IO <= 0 {
					t.Error("fresh-ring read not charged to IO")
				}
			} else if rd.IO != tc.wantIO {
				t.Errorf("IO = %v, want %v", rd.IO, tc.wantIO)
			}
			if err == nil {
				for _, reqs := range reqsets {
					verifyFilled(t, data, reqs)
				}
			}
		})
	}
}

// TestReadRetriedHasNoFreshRing: the first rung alone never builds a
// ring — the group planners use it for a paired read whose failure falls
// through to per-member ladders.
func TestReadRetriedHasNoFreshRing(t *testing.T) {
	store, f, data := newFile(t, 64<<10)
	be := &faultyBackend{script: []error{ErrRingClosed}}
	ops0, _ := store.ReadStats()
	rd, err := ReadRetried(context.Background(), be, retry.Default(), Batch{File: f, Reqs: scatteredReqs(data, 4, 4096, 7)})
	ops1, _ := store.ReadStats()
	if !errors.Is(err, ErrRingClosed) || rd.FellBack || ops1 != ops0 {
		t.Errorf("err = %v, FellBack = %v, %d PFS reads; want the ring-closed error untouched", err, rd.FellBack, ops1-ops0)
	}
}
