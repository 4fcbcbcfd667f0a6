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

// faultyBackend fails its first len(script) pricings with the scripted
// errors (nil entries succeed), then delegates to Mmap. pairBackend makes
// it a PairPricer too. Every pricing reports io of one millisecond per
// call, so what the ladder charges is exact.
type faultyBackend struct {
	script []error
	calls  int
	// batches counts the batches of the last pricing: 2 for an overlapped
	// pair, 1 for a serial one.
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

func (b *faultyBackend) Price(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	b.batches = 1
	if err := b.next(); err != nil {
		return pfs.Cost{}, time.Millisecond, err
	}
	cost, _, err := Mmap{}.Price(ctx, f, reqs)
	return cost, time.Millisecond, err
}

// pairBackend adds the overlapped pair path to faultyBackend.
type pairBackend struct{ faultyBackend }

func (b *pairBackend) PricePair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	b.batches = 2
	if err := b.next(); err != nil {
		return pfs.Cost{}, time.Millisecond, err
	}
	cost, _, err := Mmap{}.Price(ctx, fA, reqsA)
	if err == nil {
		var costB pfs.Cost
		costB, _, err = Mmap{}.Price(ctx, fB, reqsB)
		cost.Add(costB)
	}
	return cost, time.Millisecond, err
}

// TestReadLadder drives the read ladder against scripted faults: what is
// retried, what it costs, and what is never retried.
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
		pair    bool // backend is a PairPricer
		batches int  // 1 or 2 files

		wantErr      error // matched with errors.Is; nil = success
		wantCalls    int
		wantRetries  int
		wantIO       time.Duration
		wantPairRead bool // the last pricing was one overlapped pair
		wantPermErr  bool // the error must classify Permanent
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
		{name: "two files overlap on a pair reader", pol: pol, pair: true, batches: 2,
			wantCalls: 1, wantIO: time.Millisecond, wantPairRead: true},
		{name: "two files serialize without one", pol: pol, batches: 2,
			wantCalls: 2, wantIO: 2 * time.Millisecond},
		{name: "canceled context is never degraded", ctx: canceled, pol: pol, batches: 1,
			script: []error{blip}, wantErr: context.Canceled, wantCalls: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, f, data := newFile(t, 64<<10)
			var batches []Batch
			for b := 0; b < tc.batches; b++ {
				batches = append(batches, Batch{File: f, Reqs: scatteredReqs(data, 4, 4096, int64(7+b))})
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
			rd, err := ReadLadder(ctx, be, tc.pol, batches...)

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
				t.Errorf("backend priced %d times, want %d", fb.calls, tc.wantCalls)
			}
			if rd.Retries != tc.wantRetries {
				t.Errorf("Retries = %d, want %d", rd.Retries, tc.wantRetries)
			}
			if tc.wantCalls > 0 && (fb.batches == 2) != tc.wantPairRead {
				t.Errorf("last pricing covered %d batches, want pair=%v", fb.batches, tc.wantPairRead)
			}
			if rd.IO != tc.wantIO {
				t.Errorf("IO = %v, want %v", rd.IO, tc.wantIO)
			}
		})
	}
}
