package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/pfs"
)

// deliver runs plan under cfg, the jobs on the caller, and fails the test
// unless every job sees on each side exactly its extent's bytes of
// data[source].
func deliver(t *testing.T, plan *Plan, cfg Config, data ...[]byte) Stats {
	t.Helper()
	cfg.Device = device.GPUModel()
	stats, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		for _, side := range [2]struct {
			ref Ref
			got []byte
		}{{j.A, a}, {j.B, b}} {
			e := plan.Sources[side.ref.Src].Extents[side.ref.Ext]
			if !bytes.Equal(side.got, data[side.ref.Src][e.Off:e.Off+int64(e.Len)]) {
				return 0, fmt.Errorf("job %d: source %d at %d+%d delivered the wrong bytes", j.Index, side.ref.Src, e.Off, e.Len)
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// randomLayout lays out groups of extents that mix every case the merge
// must tell apart — adjacent, duplicated, overlapping, one inside another,
// holes of exactly maxGap and of maxGap+1, and a lone extent — in random
// order, each group at a random base.
func randomLayout(rng *rand.Rand, fileSize, maxGap int) []Extent {
	var exts []Extent
	for g := rng.Intn(6) + 1; g > 0; g-- {
		k := rng.Intn(5) + 1
		n := (rng.Intn(8) + 1) * 512
		base := int64(rng.Intn(fileSize/2 - 8*n - 2*maxGap - 2))
		at := func(off int64, n int) { exts = append(exts, Extent{Off: off, Len: n}) }
		switch rng.Intn(7) {
		case 0: // adjacent
			for i := 0; i < k; i++ {
				at(base+int64(i*n), n)
			}
		case 1: // one extent, named k times
			for i := 0; i < k; i++ {
				at(base, n)
			}
		case 2: // overlapping
			for i := 0; i < k; i++ {
				at(base+int64(i*n/2), n)
			}
		case 3: // inside a longer one, which sorts after the first of them
			at(base, 4*n)
			for i := 0; i < 4; i++ {
				at(base+int64(i*n), n)
			}
		case 4: // a hole of exactly maxGap: bridged
			at(base, n)
			at(base+int64(n+maxGap), n)
		case 5: // a hole of maxGap+1: not bridged
			at(base, n)
			at(base+int64(n+maxGap+1), n)
		case 6: // alone
			at(base, n)
		}
	}
	rng.Shuffle(len(exts), func(i, j int) { exts[i], exts[j] = exts[j], exts[i] })
	return exts
}

// TestRunsLandLikeExtentsAlone is the merge's property test: whatever the
// layout — a pair's two files, or one pack holding both sides — a window
// prices exactly the reference merge of the extents it lands, lands each
// once, and every job sees the bytes it sees when every extent prices
// alone.
func TestRunsLandLikeExtentsAlone(t *testing.T) {
	const fileSize = 1 << 20
	fa, fb, da, db := twoFiles(t, fileSize)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		maxGap := []int{512, 4 << 10, 16 << 10}[trial%3]
		exts := randomLayout(rng, fileSize, maxGap)
		plan, data := NewPlan(fa, fb), [][]byte{da, db}
		pack := trial%2 == 1
		if pack {
			// Both sides in one source: B's extent sits right after A's,
			// a hole after it, or in the file's other half.
			plan, data = NewPlan(fa), [][]byte{da}
		}
		for i, e := range exts {
			if !pack {
				plan.Add(i, 0, e.Off, 1, e.Off, e.Len)
				continue
			}
			shift := []int64{int64(e.Len), int64(e.Len + maxGap), fileSize / 2}[rng.Intn(3)]
			plan.Add(i, 0, e.Off, 0, e.Off+shift, e.Len)
		}
		slice := []int{1 << 30, 16 << 10}[rng.Intn(2)]
		for _, gap := range []int{0, maxGap} {
			fa.Store().EvictAll()
			log := &landLog{inner: aio.NewUring(64)}
			log.record(t)
			deliver(t, plan, Config{Backend: log, MaxGap: gap, SliceBytes: slice}, data...)
			checkLandings(t, log, gap)
		}
	}
}

// TestQuickRunsLandLikeExtentsAlone: scattered extents priced as runs land
// the bytes they land priced alone.
func TestQuickRunsLandLikeExtentsAlone(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 256<<10)
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := NewPlan(fa, fb)
		for i := 0; i <= int(n%32); i++ {
			off := int64(rng.Intn(255)) * 1024
			plan.Add(i, 0, off, 1, off, 1024)
		}
		for _, gap := range []int{4096, 0} {
			deliver(t, plan, Config{Backend: aio.NewUring(32), MaxGap: gap}, da, db)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRunsDeliverScatteredExtents: merged windows of scattered extents
// deliver every job its bytes, and the pricing is charged.
func TestRunsDeliverScatteredExtents(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 1<<20)
	rng := rand.New(rand.NewSource(21))
	plan := NewPlan(fa, fb)
	for i := 0; i < 200; i++ {
		off := int64(rng.Intn(255)) * 4096
		plan.Add(i, 0, off, 1, off, 4096)
	}
	stats := deliver(t, plan, Config{Backend: aio.NewUring(64), MaxGap: 8 << 10, SliceBytes: 256 << 10}, da, db)
	if stats.ReadCost.TotalBytes() == 0 || stats.IOVirtual <= 0 {
		t.Errorf("accounting empty: %+v", stats)
	}
}

// adjacentPlan is a pair of n extents of size bytes per side, every stride
// bytes from offset 0.
func adjacentPlan(fa, fb *pfs.File, n, size, stride int) *Plan {
	return pairPlan(fa, fb, pairsEvery(n, size, stride))
}

// TestRunsReduceOps: adjacent extents price as one read per file;
// alone, one read each.
func TestRunsReduceOps(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 512<<10)
	plan := adjacentPlan(fa, fb, 64, 4096, 4096)
	if st := deliver(t, plan, Config{Backend: aio.NewUring(64), MaxGap: 4096}, da, db); st.ReadCost.Ops != 2 {
		t.Errorf("adjacent chunks used %d ops, want 1 per file", st.ReadCost.Ops)
	}
	fa.Store().EvictAll()
	if st := deliver(t, plan, Config{Backend: aio.NewUring(64)}, da, db); st.ReadCost.Ops != 128 {
		t.Errorf("uncoalesced ops = %d, want 64 per file", st.ReadCost.Ops)
	}
}

// TestRunsRespectGapLimit: two clusters further apart than MaxGap
// stay two reads per file.
func TestRunsRespectGapLimit(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 1<<20)
	plan := pairPlan(fa, fb, []chunkPair{{0, 0, 0, 4096}, {1, 4096, 4096, 4096}, {2, 512 << 10, 512 << 10, 4096}})
	if st := deliver(t, plan, Config{Backend: aio.NewUring(8), MaxGap: 4096}, da, db); st.ReadCost.Ops != 4 {
		t.Errorf("ops = %d, want 2 per file (gap not bridged)", st.ReadCost.Ops)
	}
}

// TestRunsBridgeSmallGaps: 4 KiB holes under an 8 KiB MaxGap are
// bridged, and the bridged bytes are priced, not counted as read.
func TestRunsBridgeSmallGaps(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 256<<10)
	st := deliver(t, adjacentPlan(fa, fb, 8, 4096, 8192), Config{Backend: aio.NewUring(8), MaxGap: 8192}, da, db)
	if st.ReadCost.Ops != 2 {
		t.Errorf("ops = %d, want 1 per file (gaps bridged)", st.ReadCost.Ops)
	}
	if want := int64(2 * (7*8192 + 4096)); st.ReadCost.TotalBytes() != want {
		t.Errorf("priced bytes = %d, want %d including gaps", st.ReadCost.TotalBytes(), want)
	}
	if st.BytesRead != 2*8*4096 {
		t.Errorf("BytesRead = %d, want the extents' %d", st.BytesRead, 2*8*4096)
	}
}

// TestRunsHoldOverlappingExtents: overlapping extents, and one inside
// another, land whole through a merged run.
func TestRunsHoldOverlappingExtents(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 64<<10)
	plan := pairPlan(fa, fb, []chunkPair{{0, 0, 0, 8192}, {1, 4096, 4096, 8192}, {2, 100, 100, 50}})
	deliver(t, plan, Config{Backend: aio.Mmap{}, MaxGap: 16 << 10}, da, db)
}

// TestRunOfALoneExtentIsTheExtent: a lone extent prices as itself.
func TestRunOfALoneExtentIsTheExtent(t *testing.T) {
	f, data := oneFile(t, 16<<10)
	log := &landLog{inner: aio.NewUring(64)}
	plan := NewPlan(f)
	plan.Add(0, 0, 1024, 0, 1024, 1024)
	deliver(t, plan, Config{Backend: log, MaxGap: 16 << 10}, data)
	if got := log.windows[0].priced[f]; len(got) != 1 || got[0] != (Extent{Off: 1024, Len: 1024}) {
		t.Errorf("a lone extent priced as %v", got)
	}
}

// TestRunsRejectNegativeOffsets: an extent at a negative offset fails
// the run at pricing, merged or not.
func TestRunsRejectNegativeOffsets(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 4096)
	for _, gap := range []int{16 << 10, 0} {
		plan := pairPlan(fa, fb, []chunkPair{{0, 0, 0, 16}, {1, -5, 0, 16}})
		cfg := Config{Backend: aio.NewUring(8), MaxGap: gap, Device: device.GPUModel()}
		if _, err := Run(context.Background(), plan, cfg, func(int, Job, []byte, []byte) (time.Duration, error) { return 0, nil }); err == nil {
			t.Errorf("MaxGap %d: an extent at -5 accepted", gap)
		}
	}
}

// TestRunsPairEquivalence: a clustered pair prices as 16 runs, one
// per cluster and file, fewer reads than alone, and the same bytes land.
func TestRunsPairEquivalence(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 1<<20)
	var pairs []chunkPair
	for cluster := 0; cluster < 8; cluster++ {
		for j := 0; j < 4; j++ {
			off := int64(cluster)*96<<10 + int64(j)*4096
			pairs = append(pairs, chunkPair{Index: len(pairs), OffA: off, OffB: off, Len: 4096})
		}
	}
	plan := pairPlan(fa, fb, pairs)
	u := aio.NewUring(64)
	plain := deliver(t, plan, Config{Backend: u}, da, db)
	fa.Store().EvictAll()
	merged := deliver(t, plan, Config{Backend: u, MaxGap: 16 << 10}, da, db)
	if merged.ReadCost.Ops >= plain.ReadCost.Ops {
		t.Errorf("coalesced pair ops = %d, plain = %d", merged.ReadCost.Ops, plain.ReadCost.Ops)
	}
	if merged.ReadCost.Ops != 16 {
		t.Errorf("coalesced pair ops = %d, want 16 (8 clusters per file)", merged.ReadCost.Ops)
	}
	if merged.BytesRead != plain.BytesRead {
		t.Errorf("coalesced pair landed %d bytes, plain %d", merged.BytesRead, plain.BytesRead)
	}
}

// TestRunsPairOnSerialBackend: merged runs on a backend without a pair
// path (Mmap) price one file after the other and land the same bytes.
func TestRunsPairOnSerialBackend(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 1<<20)
	rng := rand.New(rand.NewSource(31))
	var pairs []chunkPair
	for i := 0; i < 24; i++ {
		pairs = append(pairs, chunkPair{Index: i, OffA: int64(rng.Intn(255)) * 4096, OffB: int64(rng.Intn(255)) * 4096, Len: 4096})
	}
	deliver(t, pairPlan(fa, fb, pairs), Config{Backend: aio.Mmap{}, MaxGap: 16 << 10}, da, db)
}
