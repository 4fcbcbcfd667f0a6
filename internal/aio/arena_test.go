package aio

import "testing"

// TestArenaBoundsAndRelease pins the arena's contract: checkouts reuse
// the smallest set that fits, retained bytes never pass the limit,
// oversize sets are dropped, and Release empties it and reports leaks.
func TestArenaBoundsAndRelease(t *testing.T) {
	a := NewArena(3 << 20)
	s1 := a.Get(2 << 20)
	s2 := a.Get(256 << 10)
	if st := a.Stats(); st.Outstanding != 2 || st.Misses != 2 || st.Bytes != 0 {
		t.Fatalf("after two cold checkouts: %+v", st)
	}
	a.Put(s1)
	a.Put(s2)
	if st := a.Stats(); st.Sets != 2 || st.Bytes != 2<<20+256<<10 {
		t.Fatalf("after returns: %+v", st)
	}
	if got := a.Get(100 << 10); got != s2 {
		t.Error("checkout did not pick the smallest set that fits")
	} else {
		a.Put(got)
	}
	if got := a.Get(1 << 20); got != s1 {
		t.Error("checkout did not reuse the fitting set")
	} else {
		a.Put(got)
	}
	if st := a.Stats(); st.Misses != 2 {
		t.Errorf("warm checkouts counted as misses: %+v", st)
	}

	// A third 2 MiB set would pass the 3 MiB limit: dropped on return.
	s3 := a.Get(2 << 20)
	a.Put(a.Get(2 << 20))
	a.Put(s3)
	if st := a.Stats(); st.Bytes > st.Limit {
		t.Errorf("retained %d bytes over the %d limit", st.Bytes, st.Limit)
	}
	// Oversize sets are never kept.
	big := NewArena(1 << 40)
	big.Put(big.Get(MaxSetBytes + 1))
	if st := big.Stats(); st.Sets != 0 || st.Bytes != 0 {
		t.Errorf("oversize set retained: %+v", st)
	}

	held := a.Get(1)
	if err := a.Release(); err == nil {
		t.Error("Release with a set checked out reported no leak")
	}
	a.Put(held)
	if err := a.Release(); err != nil {
		t.Errorf("Release after the set came back: %v", err)
	}
	if st := a.Stats(); st.Bytes != 0 || st.Sets != 0 {
		t.Errorf("released arena still retains: %+v", st)
	}
}
