package pfs

import (
	"errors"
	"io"
	"math/rand"
	"testing"
)

// mapCache is the page cache as it was before the bitset: one map entry
// per resident page. It is the reference the bitset must agree with on
// every cost, count and statistic.
type mapCache struct {
	pageSize  int64
	pages     map[string]map[int64]struct{}
	ops, size int64
}

func (m *mapCache) set(name string) map[int64]struct{} {
	if m.pages[name] == nil {
		m.pages[name] = make(map[int64]struct{})
	}
	return m.pages[name]
}

func (m *mapCache) read(name string, off int64, n int) Cost {
	if n <= 0 {
		return Cost{}
	}
	pages := m.set(name)
	var cold int64
	for p := off / m.pageSize; p <= (off+int64(n)-1)/m.pageSize; p++ {
		if _, ok := pages[p]; !ok {
			cold++
			pages[p] = struct{}{}
		}
	}
	coldBytes := min(cold*m.pageSize, int64(n))
	c := Cost{Bytes: coldBytes, CachedBytes: int64(n) - coldBytes}
	if cold > 0 {
		c.Ops = 1
	} else {
		c.CachedOps = 1
	}
	m.ops++
	m.size += int64(n)
	return c
}

func (m *mapCache) wrote(name string, off int64, n int) {
	pages := m.set(name)
	for p := off / m.pageSize; n > 0 && p <= (off+int64(n)-1)/m.pageSize; p++ {
		pages[p] = struct{}{}
	}
}

// TestPageResidencyMatchesMapModel runs random read / append / rewrite /
// evict schedules against the store and the map model side by side: every
// read's Cost, every ResidentPages answer and the ReadStats totals are
// identical.
func TestPageResidencyMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store, err := NewStore(t.TempDir(), LustreModel())
		if err != nil {
			t.Fatal(err)
		}
		model := &mapCache{pageSize: int64(store.Model().PageSize), pages: make(map[string]map[int64]struct{})}
		names := []string{"a.bin", "b.bin", "sub/c.bin"}
		sizes := map[string]int64{}
		write := func(name string, appendTo bool) {
			n := rng.Intn(300<<10) + 1
			var w *Writer
			var err error
			if appendTo {
				w, err = store.Append(name)
			} else {
				w, err = store.Create(name) // truncates and evicts
				delete(model.pages, name)
				sizes[name] = 0
			}
			if err != nil {
				t.Fatal(err)
			}
			// Several writes per writer, of page-unaligned sizes.
			for left := n; left > 0; {
				k := min(left, rng.Intn(70<<10)+1)
				if _, err := w.Write(make([]byte, k)); err != nil {
					t.Fatal(err)
				}
				model.wrote(name, sizes[name], k)
				sizes[name] += int64(k)
				left -= k
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			write(name, false)
		}
		files := map[string]*File{}
		reopen := func(name string) {
			if f := files[name]; f != nil {
				f.Close()
			}
			f, err := store.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			files[name] = f
		}
		for _, name := range names {
			reopen(name)
		}

		for step := 0; step < 3000; step++ {
			name := names[rng.Intn(len(names))]
			switch k := rng.Intn(100); {
			case k < 80: // read, sometimes across EOF
				off := rng.Int63n(sizes[name] + 4096)
				n := rng.Intn(96<<10) + 1
				got, cost, err := files[name].ReadAt(make([]byte, n), off)
				if err != nil && !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				if want := model.read(name, off, got); cost != want {
					t.Fatalf("seed %d step %d: read %s@%d+%d cost %+v, map model %+v", seed, step, name, off, got, cost, want)
				}
			case k < 86:
				store.Evict(name)
				delete(model.pages, name)
			case k < 90:
				store.EvictAll()
				model.pages = make(map[string]map[int64]struct{})
			case k < 96:
				write(name, true)
				reopen(name)
			default:
				write(name, false)
				reopen(name)
			}
			if got, want := store.ResidentPages(name), len(model.pages[name]); got != want {
				t.Fatalf("seed %d step %d: %s has %d resident pages, map model %d", seed, step, name, got, want)
			}
		}
		if ops, size := store.ReadStats(); ops != model.ops || size != model.size {
			t.Errorf("seed %d: ReadStats (%d, %d), map model (%d, %d)", seed, ops, size, model.ops, model.size)
		}
		for _, f := range files {
			f.Close()
		}
	}
}
