package stream

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/retry"
)

var errBlip = errors.New("storage blip")

// flakyBackend fails its first `fails` Price calls with a
// Transient-classified error, then delegates to the inner backend.
type flakyBackend struct {
	inner aio.Backend
	fails int32
	calls int32
}

func (f *flakyBackend) Name() string { return "flaky" }

func (f *flakyBackend) Price(ctx context.Context, file *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	atomic.AddInt32(&f.calls, 1)
	if atomic.AddInt32(&f.fails, -1) >= 0 {
		return pfs.Cost{}, 0, retry.Mark(errBlip, retry.Transient)
	}
	return f.inner.Price(ctx, file, reqs)
}

func retryPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}
}

// TestStreamRetriesTransientReads pins what the pipeline adds on top of the
// read ladder (aio.ReadLadder, tested rung by rung in internal/aio): a
// slice's retries and backoff reach Stats.
func TestStreamRetriesTransientReads(t *testing.T) {
	fa, fb, da, _ := twoFiles(t, 64<<10)
	pairs := pairsEvery(4, 4096, 8192)
	fb2 := &flakyBackend{inner: aio.Mmap{}, fails: 2}
	cfg := Config{Arena: aio.NewArena(0), Backend: fb2, Device: device.GPUModel(), Retry: retryPolicy()}
	ok := true
	stats, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		p := pairs[j.Index]
		if !bytes.Equal(a, da[p.OffA:p.OffA+int64(p.Len)]) {
			ok = false
		}
		return 0, nil
	})
	if err != nil {
		t.Fatalf("transient blips should be retried away: %v", err)
	}
	if !ok {
		t.Error("retried pipeline delivered wrong bytes")
	}
	if stats.ReadRetries != 2 {
		t.Errorf("ReadRetries = %d, want 2", stats.ReadRetries)
	}
	if stats.IOVirtual <= 0 {
		t.Error("backoff should be priced into IOVirtual")
	}
}
