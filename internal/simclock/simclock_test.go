package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBandwidthTime(t *testing.T) {
	if got := BandwidthTime(1e9, 1e9); got != time.Second {
		t.Errorf("1 GB at 1 GB/s = %v, want 1s", got)
	}
	if got := BandwidthTime(0, 1e9); got != 0 {
		t.Errorf("0 bytes = %v, want 0", got)
	}
	if got := BandwidthTime(100, 0); got != 0 {
		t.Errorf("0 bandwidth = %v, want 0", got)
	}
	if got := BandwidthTime(-5, 1e9); got != 0 {
		t.Errorf("negative bytes = %v, want 0", got)
	}
}

func TestOverlappedIOLatencyBound(t *testing.T) {
	// 100 tiny ops, queue depth 10, negligible bytes: 10 rounds of latency
	// plus the final completion latency.
	lat := time.Millisecond
	got := OverlappedIO(100, lat, 10, 100, 1e12)
	want := 11 * time.Millisecond
	if got != want {
		t.Errorf("latency-bound = %v, want %v", got, want)
	}
}

func TestOverlappedIOBandwidthBound(t *testing.T) {
	// Few large ops: the bandwidth term dominates.
	lat := time.Microsecond
	got := OverlappedIO(4, lat, 8, 4e9, 1e9) // 4 GB at 1 GB/s
	if got < 4*time.Second || got > 4*time.Second+time.Millisecond {
		t.Errorf("bandwidth-bound = %v, want ~4s", got)
	}
}

func TestOverlappedIOEdge(t *testing.T) {
	if got := OverlappedIO(0, time.Second, 4, 100, 1e9); got != 0 {
		t.Errorf("n=0 = %v, want 0", got)
	}
	// queueDepth < 1 is treated as 1 (fully serial latency).
	got := OverlappedIO(3, time.Millisecond, 0, 0, 1e9)
	if got != 4*time.Millisecond {
		t.Errorf("qd=0 = %v, want 4ms", got)
	}
}

func TestSerialIO(t *testing.T) {
	got := SerialIO(10, time.Millisecond, 1e6, 1e9)
	want := 10*time.Millisecond + time.Millisecond
	if got != want {
		t.Errorf("SerialIO = %v, want %v", got, want)
	}
	if SerialIO(0, time.Second, 100, 1) != 0 {
		t.Error("n=0 should cost 0")
	}
}

func TestSerialSlowerThanOverlapped(t *testing.T) {
	// The structural claim behind Fig. 9: for many small scattered reads,
	// the synchronous backend is strictly slower than the async one.
	n, lat, bytes, bw := 10000, 200*time.Microsecond, int64(40<<20), 2e9
	sync := SerialIO(n, lat, bytes, bw)
	async := OverlappedIO(n, lat, 64, bytes, bw)
	if sync <= async {
		t.Errorf("serial %v not slower than overlapped %v", sync, async)
	}
	if float64(sync)/float64(async) < 3 {
		t.Errorf("serial/overlapped ratio %.2f, want > 3 for scattered smalls", float64(sync)/float64(async))
	}
}

func TestPipeline(t *testing.T) {
	// 10 slices, stages 3ms (IO) and 1ms (compute): steady state bound by
	// IO, compute contributes one fill slice.
	got := Pipeline(10, 3*time.Millisecond, time.Millisecond)
	want := 31 * time.Millisecond
	if got != want {
		t.Errorf("Pipeline = %v, want %v", got, want)
	}
	if Pipeline(0, time.Second) != 0 {
		t.Error("0 slices should cost 0")
	}
	if Pipeline(5) != 0 {
		t.Error("no stages should cost 0")
	}
}

func TestPipelineNeverWorseThanSum(t *testing.T) {
	f := func(slices uint8, aMs, bMs, cMs uint16) bool {
		s := int(slices%32) + 1
		a := time.Duration(aMs) * time.Millisecond
		b := time.Duration(bMs) * time.Millisecond
		c := time.Duration(cMs) * time.Millisecond
		p := Pipeline(s, a, b, c)
		serial := time.Duration(s) * (a + b + c)
		// Overlap can only help, and must still cover the slowest stage.
		slowest := a
		if b > slowest {
			slowest = b
		}
		if c > slowest {
			slowest = c
		}
		return p <= serial && p >= time.Duration(s)*slowest
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContended(t *testing.T) {
	lat, bw := time.Millisecond, 4*time.Millisecond
	if got := Contended(lat, bw, 1); got != 5*time.Millisecond {
		t.Errorf("1 sharer = %v", got)
	}
	if got := Contended(lat, bw, 4); got != 17*time.Millisecond {
		t.Errorf("4 sharers = %v, want 17ms", got)
	}
	if got := Contended(lat, bw, 0); got != 5*time.Millisecond {
		t.Errorf("0 sharers should clamp to 1, got %v", got)
	}
}
