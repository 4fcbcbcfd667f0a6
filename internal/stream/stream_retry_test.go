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

// flakyBackend fails its first `fails` ReadBatch calls with a
// Transient-classified error, then delegates to the inner backend.
type flakyBackend struct {
	inner aio.Backend
	fails int32
	calls int32
}

func (f *flakyBackend) Name() string { return "flaky" }

func (f *flakyBackend) ReadBatch(ctx context.Context, file *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	atomic.AddInt32(&f.calls, 1)
	if atomic.AddInt32(&f.fails, -1) >= 0 {
		return pfs.Cost{}, 0, retry.Mark(errBlip, retry.Transient)
	}
	return f.inner.ReadBatch(ctx, file, reqs)
}

// closedBackend always reports the shared ring as closed.
type closedBackend struct{}

func (closedBackend) Name() string { return "closed" }

func (closedBackend) ReadBatch(context.Context, *pfs.File, []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	return pfs.Cost{}, 0, aio.ErrRingClosed
}

func retryPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}
}

func TestStreamRetriesTransientReads(t *testing.T) {
	fa, fb, da, _ := twoFiles(t, 64<<10)
	pairs := pairsEvery(4, 4096, 8192)
	fb2 := &flakyBackend{inner: aio.Mmap{}, fails: 2}
	cfg := Config{Backend: fb2, Device: device.GPUModel(), Retry: retryPolicy()}
	ok := true
	stats, err := Run(context.Background(), fa, fb, pairs, cfg, func(_ int, p ChunkPair, a, b []byte) (time.Duration, error) {
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

func TestStreamExhaustedRetryIsPermanent(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 64<<10)
	pairs := pairsEvery(4, 4096, 8192)
	fb2 := &flakyBackend{inner: aio.Mmap{}, fails: 100}
	cfg := Config{Backend: fb2, Device: device.GPUModel(), Retry: retryPolicy()}
	_, err := Run(context.Background(), fa, fb, pairs, cfg, func(int, ChunkPair, []byte, []byte) (time.Duration, error) {
		return 0, nil
	})
	if !errors.Is(err, errBlip) {
		t.Fatalf("err = %v, want the underlying blip", err)
	}
	if retry.Classify(err) != retry.Permanent {
		t.Errorf("exhausted stream error must classify Permanent, got %v", retry.Classify(err))
	}
	if calls := atomic.LoadInt32(&fb2.calls); calls != 3 {
		t.Errorf("backend called %d times, want 3 (MaxAttempts)", calls)
	}
}

func TestStreamZeroPolicyDoesNotRetry(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 64<<10)
	pairs := pairsEvery(4, 4096, 8192)
	fb2 := &flakyBackend{inner: aio.Mmap{}, fails: 1}
	cfg := Config{Backend: fb2, Device: device.GPUModel()}
	_, err := Run(context.Background(), fa, fb, pairs, cfg, func(int, ChunkPair, []byte, []byte) (time.Duration, error) {
		return 0, nil
	})
	if !errors.Is(err, errBlip) {
		t.Fatalf("zero policy must surface the first transient error, got %v", err)
	}
	if calls := atomic.LoadInt32(&fb2.calls); calls != 1 {
		t.Errorf("backend called %d times, want 1", calls)
	}
}

func TestStreamRingClosedFallsBackToLegacy(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 256<<10)
	pairs := pairsEvery(16, 4096, 16384)
	cfg := Config{Backend: closedBackend{}, Device: device.GPUModel(), SliceBytes: 32 << 10, Retry: retryPolicy()}
	ok := true
	stats, err := Run(context.Background(), fa, fb, pairs, cfg, func(_ int, p ChunkPair, a, b []byte) (time.Duration, error) {
		if !bytes.Equal(a, da[p.OffA:p.OffA+int64(p.Len)]) || !bytes.Equal(b, db[p.OffB:p.OffB+int64(p.Len)]) {
			ok = false
		}
		return 0, nil
	})
	if err != nil {
		t.Fatalf("ring-closed should degrade to Legacy, not fail: %v", err)
	}
	if !ok {
		t.Error("fallback pipeline delivered wrong bytes")
	}
	if stats.RingFallbacks != stats.Slices || stats.Slices == 0 {
		t.Errorf("RingFallbacks = %d over %d slices, want all", stats.RingFallbacks, stats.Slices)
	}
}
