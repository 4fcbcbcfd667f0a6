package main

import (
	"testing"
	"time"
)

// The reference job checks its own answer (the number of values beyond ε
// is known from how the file is made), so a point that returns is a point
// that computed what it should have.
func TestCalibratorPoint(t *testing.T) {
	c, err := newCalibrator(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d, err := c.point()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Errorf("point %d took %v", i, d)
		}
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedScale(t *testing.T) {
	for _, tc := range []struct {
		before, after time.Duration
		want          float64
	}{
		{calRef, calRef, 1},
		{2 * calRef, 2 * calRef, 0.5}, // box at half speed: times halve
		{calRef / 2, calRef / 2, 2},
		{calRef, 3 * calRef, 0.5},       // the two ends are averaged
		{calRef / 2, 3 * calRef / 2, 1}, // so drift across the slice cancels
	} {
		//lint:ignore floatcmp,epsflow the cases are exact in binary floating point
		if got := speedScale(tc.before, tc.after); got != tc.want {
			t.Errorf("speedScale(%v, %v) = %v, want %v", tc.before, tc.after, got, tc.want)
		}
	}
}

func TestSampleScale(t *testing.T) {
	s := sample{
		walls:   []time.Duration{2 * time.Millisecond, 4 * time.Millisecond},
		elapsed: time.Second,
		proc:    procSnap{cpu: time.Second},
	}
	s.scale(0.5)
	if s.walls[0] != time.Millisecond || s.walls[1] != 2*time.Millisecond || s.elapsed != 500*time.Millisecond {
		t.Errorf("scaled to %v over %v", s.walls, s.elapsed)
	}
	if s.proc.cpu != time.Second {
		t.Errorf("process cost was scaled to %v; it is reported as measured", s.proc.cpu)
	}
}
