package simclock

import (
	"testing"
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
