package shard

import (
	"reflect"
	"testing"
)

// unitWeight weighs every unit 1.
func unitWeight(int) int64 { return 1 }

func TestDequePushPopFIFO(t *testing.T) {
	d := newDeques(2, unitWeight)
	d.push(0, 1, 2, 3)
	for want := 1; want <= 3; want++ {
		got, ok := d.pop(0)
		if !ok || got != want {
			t.Fatalf("Pop = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := d.pop(0); ok {
		t.Fatal("Pop from empty deque returned ok")
	}
}

// TestDequeStealHalfFromTail verifies the stealing contract: the thief
// takes half the victim's items (rounded up) from the TAIL, leaving the
// victim's head — its locality — untouched, and immediately pops one.
func TestDequeStealHalfFromTail(t *testing.T) {
	d := newDeques(2, unitWeight)
	d.push(0, 10, 11, 12, 13, 14)
	got, ok := d.steal(1)
	if !ok {
		t.Fatal("Steal found nothing")
	}
	// 5 items: thief takes ceil(5/2)=3 from the tail {12,13,14} and pops
	// the first of them.
	if got != 12 {
		t.Errorf("stolen head = %d, want 12", got)
	}
	if n := len(d.qs[1]); n != 2 {
		t.Errorf("thief deque len = %d, want 2", n)
	}
	if n := len(d.qs[0]); n != 2 {
		t.Errorf("victim deque len = %d, want 2", n)
	}
	if v, _ := d.pop(0); v != 10 {
		t.Errorf("victim head = %d, want 10 (locality preserved)", v)
	}
	if ops, units := d.stealsBy[1], d.stolenBy[1]; ops != 1 || units != 3 {
		t.Errorf("thief's steals = %d of %d units; want 1 of 3", ops, units)
	}
	if ops, units := d.stealsBy[0], d.stolenBy[0]; ops != 0 || units != 0 {
		t.Errorf("victim's steals = %d of %d units; want none", ops, units)
	}
}

// TestDequeStealPicksHeaviest verifies victim selection by weight, not
// item count: one huge unit outweighs many small ones.
func TestDequeStealPicksHeaviest(t *testing.T) {
	weights := map[int]int64{1: 1, 2: 1, 3: 1, 4: 100}
	d := newDeques(3, func(v int) int64 { return weights[v] })
	d.push(0, 1, 2, 3)
	d.push(1, 4)
	got, ok := d.steal(2)
	if !ok || got != 4 {
		t.Fatalf("Steal = %d, %v; want the heavy item 4", got, ok)
	}
}

// TestDequeStealFallsBackToOwnDeque covers the dying-worker hand-back: a
// unit a worker returned to its own deque is still work when every peer
// is empty.
func TestDequeStealFallsBackToOwnDeque(t *testing.T) {
	d := newDeques(2, unitWeight)
	d.push(1, 42)
	got, ok := d.steal(1)
	if !ok || got != 42 {
		t.Fatalf("Steal = %d, %v; want own refilled item 42", got, ok)
	}
	if _, ok := d.steal(1); ok {
		t.Fatal("Steal with all deques empty returned ok")
	}
}

func TestDequeDrain(t *testing.T) {
	d := newDeques(3, unitWeight)
	d.push(0, 1)
	d.push(2, 2, 3)
	if got := d.drain(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Drain = %v, want [1 2 3]", got)
	}
	if got := d.drain(); got != nil {
		t.Errorf("second Drain = %v, want nil", got)
	}
	if n := len(d.qs[2]); n != 0 {
		t.Errorf("deque 2 holds %d units after drain, want 0", n)
	}
}
