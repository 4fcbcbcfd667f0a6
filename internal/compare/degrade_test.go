package compare

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/retry"
	"repro/internal/synth"
)

// nameFailBackend fails every batch priced against files whose name
// contains match, scoping injected stage-2 failures to one run's data file
// (metadata loads bypass the backend, so they stay healthy).
type nameFailBackend struct {
	inner aio.Backend
	match string
	err   error
}

func (b nameFailBackend) Name() string { return "namefail" }

func (b nameFailBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	if strings.Contains(f.Name(), b.match) {
		return pfs.Cost{}, 0, b.err
	}
	return b.inner.Price(ctx, f, reqs)
}

// flipBackend is in-flight corruption: every chunk priced through it from
// a file whose name contains match lands with byte 3 — a float32's
// sign/exponent byte — XORed with 0x40. It is handed the runs a window
// merged its chunks into, so it flips every chunk-th byte of a run from
// its byte 3 on: byte 3 of each chunk the run holds, and bytes in a
// bridged hole, which never land. The flips are fault-hook bit flips,
// chosen by a hook the backend installs on the store only while it prices,
// so integrity re-reads, which go straight to the file, see the disk's
// bytes.
type flipBackend struct {
	inner aio.Backend
	match string
	chunk int
}

func (b flipBackend) Name() string { return "flip" }

func (b flipBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	if !strings.Contains(f.Name(), b.match) {
		return b.inner.Price(ctx, f, reqs)
	}
	h := &byteFlips{}
	for _, q := range reqs {
		for at := q.Off + 3; at < q.Off+int64(q.Len); at += int64(b.chunk) {
			h.at = append(h.at, at)
		}
	}
	f.Store().SetFaultHook(h)
	defer f.Store().SetFaultHook(nil)
	return b.inner.Price(ctx, f, reqs)
}

// byteFlips is the fault hook of flipBackend: every read flips bit 6 of the
// target bytes it covers.
type byteFlips struct {
	faults.Nop
	at []int64
}

func (h *byteFlips) AfterRead(_ string, off int64, n int) ([]pfs.Flip, pfs.Cost) {
	var flips []pfs.Flip
	for _, t := range h.at {
		if t >= off && t < off+int64(n) {
			flips = append(flips, pfs.Flip{Off: t, Mask: 0x40})
		}
	}
	return flips, pfs.Cost{}
}

// flakyCountBackend fails its first `fails` batch pricings with a Transient
// error, then delegates.
type flakyCountBackend struct {
	inner aio.Backend
	fails int
	calls int
}

func (b *flakyCountBackend) Name() string { return "flakycount" }

func (b *flakyCountBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	b.calls++
	if b.calls <= b.fails {
		return pfs.Cost{}, 0, retry.Mark(errors.New("transient blip"), retry.Transient)
	}
	return b.inner.Price(ctx, f, reqs)
}

// corruptOnDisk flips one high exponent bit every stride bytes of the
// checkpoint's data region on the backing file, so every chunk of every
// field re-reads corrupt (media damage, not an in-flight glitch).
func corruptOnDisk(t *testing.T, store *pfs.Store, name string) {
	t.Helper()
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	dataStart := r.FieldFileOffset(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Root(), filepath.FromSlash(name))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Byte 3 of every 64th float32 is its sign/exponent byte: flipping
	// 0x40 moves the value far beyond any test ε in every chunk.
	for off := dataStart + 3; off < int64(len(raw)); off += 256 {
		raw[off] ^= 0x40
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	store.EvictAll()
}

// TestDegradeStreamFailureMetadataOnlyVerdict: a stage-2 read failure that
// survives retries degrades the pair to a metadata-only verdict instead of
// failing, and the degraded result is never a clean match.
func TestDegradeStreamFailureMetadataOnlyVerdict(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(70))
	opts.Backend = nameFailBackend{inner: aio.Mmap{}, match: "runB", err: errStorage}
	opts.Degrade = true
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatalf("degrade mode must absorb the stream failure: %v", err)
	}
	if !res.Degraded {
		t.Error("result not marked Degraded")
	}
	if res.UnverifiedChunks != res.CandidateChunks || res.CandidateChunks == 0 {
		t.Errorf("UnverifiedChunks = %d, want all %d candidates", res.UnverifiedChunks, res.CandidateChunks)
	}
	if res.Identical() {
		t.Error("degraded result must never be a clean match")
	}

	// Strict mode: same failure is fatal.
	opts.Degrade = false
	env.store.EvictAll()
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("strict mode error = %v, want injected fault", err)
	}
}

// TestDegradeInFlightCorruptionRecovers: corruption between disk and the
// comparator fails the leaf-hash integrity check; the single direct
// re-read sees the clean bytes and the comparison completes undegraded
// with exactly the ground-truth diffs.
func TestDegradeInFlightCorruptionRecovers(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(71))
	opts.Backend = aio.Mmap{}
	opts.Degrade = true
	clean, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.store.EvictAll()
	opts.Backend = flipBackend{inner: aio.Mmap{}, match: "runB", chunk: opts.ChunkSize}
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.UnverifiedChunks != 0 {
		t.Errorf("recovered comparison marked degraded: Degraded=%v Unverified=%d",
			res.Degraded, res.UnverifiedChunks)
	}
	// Every chunk of run B landed corrupt and was re-read once.
	if got, want := res.BytesRead-clean.BytesRead, int64(res.CandidateChunks)*int64(opts.ChunkSize); got != want {
		t.Errorf("integrity re-reads fetched %d bytes, want run B's %d candidate bytes", got, want)
	}
	assertSameDiffs(t, groundTruth(t, env, 1e-5), diffsToMap(res.Diffs), "recovered")
}

// TestDegradeOnDiskCorruptionUnverified: media corruption repeats on the
// re-read, so every damaged candidate chunk is counted Unverified rather
// than diffed from untrusted bytes — and the result is never Identical
// even with zero recorded diffs.
func TestDegradeOnDiskCorruptionUnverified(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(72))
	corruptOnDisk(t, env.store, env.nameB)
	opts.Degrade = true
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.UnverifiedChunks != res.CandidateChunks || res.CandidateChunks == 0 {
		t.Errorf("Degraded=%v Unverified=%d Candidates=%d, want all candidates unverified",
			res.Degraded, res.UnverifiedChunks, res.CandidateChunks)
	}
	if res.DiffCount != 0 {
		t.Errorf("untrusted chunks produced %d diffs, want none recorded", res.DiffCount)
	}
	if res.Identical() {
		t.Error("unverified result must never be a clean match")
	}
}

// TestDegradeRetriesTransientAtCompareLevel: transient stage-2 blips are
// retried away and accounted, leaving an undegraded, exact result.
func TestDegradeRetriesTransientAtCompareLevel(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(73))
	opts.Backend = &flakyCountBackend{inner: aio.Mmap{}, fails: 2}
	opts.Retry = retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatalf("transient blips should be retried away: %v", err)
	}
	if res.ReadRetries != 2 {
		t.Errorf("ReadRetries = %d, want 2", res.ReadRetries)
	}
	if res.Degraded {
		t.Error("retried comparison must not be degraded")
	}
	assertSameDiffs(t, groundTruth(t, env, 1e-5), diffsToMap(res.Diffs), "retried")
}

// shrinkOnPrice shrinks a container to size to (half its size when to is
// 0) the first time a read of its data region is priced: stage 2's window
// is priced, then its bytes are gone. With on set, only a read of the
// store file of that name counts.
type shrinkOnPrice struct {
	faults.Nop
	path string
	on   string
	data int64 // where the container's first field starts
	to   int64
	once sync.Once
	err  error
}

func (h *shrinkOnPrice) BeforeRead(name string, off int64, _ int) error {
	if off < h.data || (h.on != "" && name != h.on) {
		return nil // h.err is written under once: read it only after Do
	}
	h.once.Do(func() {
		var st os.FileInfo
		if st, h.err = os.Stat(h.path); h.err == nil {
			h.err = os.Truncate(h.path, cmp.Or(h.to, st.Size()/2))
		}
	})
	return h.err
}

// TestTruncatedBetweenPriceAndCopy: a container that shrinks between the
// pricing of its window and the landing of its bytes fails a strict
// comparison with no result, and under Degrade leaves every candidate of
// the pair unverified — a Degraded result, never a verdict from bytes that
// did not land.
func TestTruncatedBetweenPriceAndCopy(t *testing.T) {
	for _, degrade := range []bool{false, true} {
		opts := baseOpts(1e-5, 4<<10)
		env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(78))
		r, _, err := ckpt.OpenReader(env.store, env.nameB)
		if err != nil {
			t.Fatal(err)
		}
		hook := &shrinkOnPrice{path: filepath.Join(env.store.Root(), filepath.FromSlash(env.nameB)), data: r.FieldFileOffset(0)}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		env.store.SetFaultHook(hook)
		opts.Degrade = degrade
		res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
		env.store.SetFaultHook(nil)
		if !degrade {
			if res != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("strict: result %v, error %v; want no result and a short read", res, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("degrade mode must absorb the short read: %v", err)
		}
		if !res.Degraded || res.UnverifiedChunks != res.CandidateChunks || res.CandidateChunks == 0 {
			t.Errorf("Degraded=%v Unverified=%d Candidates=%d, want every candidate unverified",
				res.Degraded, res.UnverifiedChunks, res.CandidateChunks)
		}
	}
}

// TestGroupDegradeMemberReadFailure: a member whose union read fails after
// retries degrades every pair it touches to the metadata-only verdict; the
// group is never reported reproducible.
func TestGroupDegradeMemberReadFailure(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(75))
	opts.Backend = nameFailBackend{inner: aio.Mmap{}, match: "runB", err: errStorage}
	opts.Degrade = true
	rep, err := GroupCompare(context.Background(), env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
	if err != nil {
		t.Fatalf("degrade mode must absorb the member failure: %v", err)
	}
	pr := rep.Pairs[0].Result
	if !pr.Degraded || pr.UnverifiedChunks != pr.CandidateChunks || pr.CandidateChunks == 0 {
		t.Errorf("pair Degraded=%v Unverified=%d Candidates=%d", pr.Degraded, pr.UnverifiedChunks, pr.CandidateChunks)
	}
	if !rep.Degraded || rep.UnverifiedChunks == 0 {
		t.Error("group report must surface the degradation")
	}
	if rep.Reproducible() {
		t.Error("degraded group must never be reproducible")
	}

	// Strict mode: same failure is fatal.
	opts.Degrade = false
	env.store.EvictAll()
	if _, err := GroupCompare(context.Background(), env.store, env.nameA, []string{env.nameB}, TopologyStar, opts); !errors.Is(err, errStorage) {
		t.Errorf("strict group error = %v, want injected fault", err)
	}
}

// TestGroupDegradeOnDiskCorruptionUnverified: the group integrity rung
// counts media-damaged chunks Unverified instead of diffing them.
func TestGroupDegradeOnDiskCorruptionUnverified(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(76))
	corruptOnDisk(t, env.store, env.nameB)
	opts.Degrade = true
	rep, err := GroupCompare(context.Background(), env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	pr := rep.Pairs[0].Result
	if !pr.Degraded || pr.UnverifiedChunks != pr.CandidateChunks || pr.CandidateChunks == 0 {
		t.Errorf("pair Degraded=%v Unverified=%d Candidates=%d", pr.Degraded, pr.UnverifiedChunks, pr.CandidateChunks)
	}
	if pr.DiffCount != 0 {
		t.Errorf("untrusted chunks produced %d diffs", pr.DiffCount)
	}
	if rep.Reproducible() {
		t.Error("unverified group must never be reproducible")
	}
}

// TestGroupDegradeSharedExtentCheckedOnce: in an all-pairs group the
// baseline's chunk is one extent two pairs' jobs name, from ranges that run
// concurrently. The integrity rung must settle it once — one verdict, one
// re-read, the recovered bytes seen by both jobs — before any job runs;
// `go test -race` is the other half of this test.
func TestGroupDegradeSharedExtentCheckedOnce(t *testing.T) {
	// Every chunk of every pair is a candidate, in three windows per field.
	sh := dettest.Shape{Name: "shared-extent", Elems: 48 << 10, Chunk: 4 << 10, SliceBytes: 64 << 10, Stride: 61}
	env := newDetEnv(t, sh)
	pool := device.NewPool(4)
	defer pool.Close()
	opts := env.optsOn(pool)
	opts.Degrade = true
	run := func(backend aio.Backend) *GroupReport {
		t.Helper()
		opts.Backend = backend
		env.store.EvictAll()
		rep, err := GroupCompare(context.Background(), env.store, env.names[0], env.names[1:], TopologyAllPairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean := run(aio.Default())
	// Every read of the baseline lands with a flipped bit.
	flipped := run(flipBackend{inner: aio.Default(), match: "runA", chunk: sh.Chunk})
	if flipped.Degraded || flipped.UnverifiedChunks != 0 {
		t.Fatalf("in-flight corruption of the shared baseline degraded the group: %d unverified", flipped.UnverifiedChunks)
	}
	for pi, p := range flipped.Pairs {
		assertSameDiffs(t, dettest.Want(sh, env.fields, env.data, p.A, p.B), diffsToMap(p.Result.Diffs),
			fmt.Sprintf("pair %d-%d", p.A, p.B))
		if !reflect.DeepEqual(p.Result.Diffs, clean.Pairs[pi].Result.Diffs) {
			t.Errorf("pair %d-%d: diffs differ from the clean run's", p.A, p.B)
		}
	}
	// The baseline was re-read exactly once, whole: each of its chunks is
	// one extent however many pairs name it.
	baseline := int64(len(env.fields)) * int64(sh.Elems) * 4
	if got := flipped.BytesRead - clean.BytesRead; got != baseline {
		t.Errorf("integrity re-reads fetched %d bytes, want the baseline's %d once", got, baseline)
	}
}
