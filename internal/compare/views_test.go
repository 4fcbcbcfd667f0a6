package compare

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// TestTruncationUnderViews: run B shrinks under stage 2's views — to half
// its size, so the ε-kernel (strict) or the integrity rung's HashChunk
// (Degrade) faults on its gone pages, or to 100 bytes short of its end, off
// a page boundary inside the last candidate chunk, so no fault fires and
// the size check must catch it. On pools 1 and 4, ten strict trials fail
// with one error wrapping io.ErrUnexpectedEOF and naming run B; under
// Degrade every candidate is unverified.
func TestTruncationUnderViews(t *testing.T) {
	perturb := synth.PerturbConfig{Seed: 79, BlockElems: 4096, MagLo: 1e-3, MagHi: 1e-2, ChangedFrac: 0.5}
	const elems = 64 << 10
	arm := func(t *testing.T, env *testEnv, cutEnd bool) {
		r, _, err := ckpt.OpenReader(env.store, env.nameB)
		if err != nil {
			t.Fatal(err)
		}
		data, last := r.FieldFileOffset(0), r.FieldFileOffset(len(env.meta.Fields)-1)+4*elems
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		size := (data + last) / 2
		if cutEnd {
			size = last - 100
		}
		env.store.SetFaultHook(&shrinkOnPrice{path: filepath.Join(env.store.Root(), filepath.FromSlash(env.nameB)), data: data, to: size})
	}
	for _, cutEnd := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("cut-end=%v/pool-%d", cutEnd, workers), func(t *testing.T) {
				pool := device.NewPool(workers)
				defer pool.Close()
				opts := baseOpts(1e-5, 4<<10)
				opts.Exec = pool
				var first string
				for trial := 0; trial < 10; trial++ {
					env := newEnv(t, elems, opts, perturb)
					arm(t, env, cutEnd)
					res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
					if res != nil || !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), env.nameB) {
						t.Fatalf("strict: result %v, error %v; want no result and %s short", res, err, env.nameB)
					}
					if first == "" {
						first = err.Error()
						t.Logf("strict: %v", err)
					} else if err.Error() != first {
						t.Fatalf("trial %d: error %q, the first trial's %q", trial, err, first)
					}
				}

				env := newEnv(t, elems, opts, perturb)
				arm(t, env, cutEnd)
				opts.Degrade = true
				res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
				if err != nil {
					t.Fatalf("degraded: %v", err)
				}
				if !res.Degraded || res.CandidateChunks == 0 || res.UnverifiedChunks != res.CandidateChunks {
					t.Errorf("degraded: Degraded=%v Unverified=%d Candidates=%d, want every candidate unverified",
						res.Degraded, res.UnverifiedChunks, res.CandidateChunks)
				}
			})
		}
	}
}

// TestMetadataTruncationUnderViews: a member's .mrkl shrinks under the
// view its trees are decoded over — run B's to half its size when its own
// read is priced, so the decode's checksum faults on its gone pages; run
// B's inside its last page, so the decode reads zeros and the size check
// catches them; run A's to the first page boundary past half-way — in the
// middle field's leaf level — when run B's .mrkl is priced, so A's trees
// were decoded whole and the tree diff faults, on the pool's workers at
// pool 4. Through the pair and the group door, on pools
// 1 and 4, ten trials return no result and one error that names the .mrkl
// and wraps io.ErrUnexpectedEOF.
func TestMetadataTruncationUnderViews(t *testing.T) {
	perturb := synth.PerturbConfig{Seed: 80, BlockElems: 1024, MagLo: 1e-3, MagHi: 1e-2, ChangedFrac: 0.9}
	page := int64(os.Getpagesize())
	arms := []struct {
		name string
		cut  func(env *testEnv, size int64) (victim, on string, to int64)
	}{
		{"decode", func(env *testEnv, size int64) (string, string, int64) { return env.nameB, env.nameB, size / 2 }},
		{"last-page", func(env *testEnv, size int64) (string, string, int64) {
			return env.nameB, env.nameB, ((size-1)/page*page + size) / 2
		}},
		{"tree-diff", func(env *testEnv, size int64) (string, string, int64) {
			return env.nameA, env.nameB, (size/2/page + 1) * page
		}},
	}
	doors := []struct {
		name    string
		compare func(env *testEnv, opts Options) (any, error)
	}{
		{"pair", func(env *testEnv, opts Options) (any, error) {
			res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
			return res, err
		}},
		{"group", func(env *testEnv, opts Options) (any, error) {
			rep, err := GroupCompare(context.Background(), env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
			return rep, err
		}},
	}
	for _, arm := range arms {
		for _, door := range doors {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/pool-%d", arm.name, door.name, workers), func(t *testing.T) {
					pool := device.NewPool(workers)
					defer pool.Close()
					opts := baseOpts(1e-5, 1<<10)
					opts.Exec = pool
					env := newEnv(t, 256<<10, opts, perturb)
					saved := map[string][]byte{}
					for _, name := range []string{env.nameA, env.nameB} {
						saved[name] = readStoreFile(t, env.store, MetadataName(name))
					}
					victim, on, to := arm.cut(env, int64(len(saved[env.nameB])))
					if to <= 0 || to >= int64(len(saved[victim])) {
						t.Fatalf("cut at %d of %d bytes", to, len(saved[victim]))
					}
					var first string
					for trial := 0; trial < 10; trial++ {
						for name, b := range saved {
							writeStoreFile(t, env.store, MetadataName(name), b)
						}
						env.store.SetFaultHook(&shrinkOnPrice{
							path: filepath.Join(env.store.Root(), filepath.FromSlash(MetadataName(victim))),
							on:   MetadataName(on), to: to,
						})
						res, err := door.compare(env, opts)
						env.store.SetFaultHook(nil)
						if !reflect.ValueOf(res).IsNil() || !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), MetadataName(victim)) {
							t.Fatalf("result %v, error %v; want no result and %s short", res, err, MetadataName(victim))
						}
						if first == "" {
							first = err.Error()
							t.Logf("%v", err)
						} else if err.Error() != first {
							t.Fatalf("trial %d: error %q, the first trial's %q", trial, err, first)
						}
					}
				})
			}
		}
	}
}

// TestBuildTruncationUnderViews: the .ckpt a build reads back shrinks under
// its views — when (field b, block 1) is priced, to a page boundary in the
// middle of that block, so HashChunks faults on its gone pages; or when the
// last block is priced, to 100 bytes short of the end, inside a page, so
// the hash reads zeros and the size check must catch them. On pools 1 and
// 4, ten trials of BuildAndSave return no metadata and one error wrapping
// ckpt.ErrCorrupt that names the lowest cut block, and save nothing. A
// write to a view is no cut: its fault leaves ViewFieldAt as a panic.
func TestBuildTruncationUnderViews(t *testing.T) {
	const elems = 700_000 // 2.8 MB: three read blocks a field
	page := int64(os.Getpagesize())
	c := buildCase{name: "cut", chunk: 4 << 10}
	for _, n := range []string{"a", "b", "c"} {
		c.fields = append(c.fields, ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: elems})
		c.data = append(c.data, synth.FieldF32(elems, int64(len(c.fields))))
	}
	store, name := c.written(t)
	saved := readStoreFile(t, store, name)
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	fieldB, fieldC := r.FieldFileOffset(1), r.FieldFileOffset(2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	arms := []struct {
		name     string
		on, to   int64
		wantText string
	}{
		{"hashed-block", fieldB + 1<<20, (fieldB + 3<<19) / page * page, `field "b" at 1048576+1048576`},
		{"mid-page-end", fieldC + 2<<20, fieldC + 4*elems - 100, `field "c" at 2097152+`},
	}
	for _, arm := range arms {
		if arm.name == "mid-page-end" && arm.to%page == 0 {
			t.Fatalf("%s: the cut at %d is on a page boundary", arm.name, arm.to)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/pool-%d", arm.name, workers), func(t *testing.T) {
				pool := device.NewPool(workers)
				defer pool.Close()
				opts := Options{Epsilon: 1e-5, ChunkSize: c.chunk, Exec: pool}
				var first string
				for trial := 0; trial < 10; trial++ {
					writeStoreFile(t, store, name, saved)
					store.SetFaultHook(&shrinkOnPrice{path: filepath.Join(store.Root(), filepath.FromSlash(name)), data: arm.on, to: arm.to})
					m, _, err := BuildAndSave(context.Background(), store, name, opts)
					store.SetFaultHook(nil)
					if m != nil || !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), arm.wantText) {
						t.Fatalf("metadata %v, error %v; want none and a cut at %s", m, err, arm.wantText)
					}
					if _, err := os.Stat(filepath.Join(store.Root(), MetadataName(name))); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("metadata saved for a cut checkpoint (stat: %v)", err)
					}
					if first == "" {
						first = err.Error()
						t.Logf("%v", err)
					} else if err.Error() != first {
						t.Fatalf("trial %d: error %q, the first trial's %q", trial, err, first)
					}
				}
			})
		}
	}

	writeStoreFile(t, store, name, saved)
	r, _, err = ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, err = r.ViewFieldAt(0, 0, 4<<10, func(b []byte) error {
			b[0] ^= 1
			return nil
		})
	}()
	if _, ok := recovered.(interface{ Addr() uintptr }); !ok {
		t.Fatalf("a write to a view returned %v and panicked with %v; want the fault re-raised", err, recovered)
	}
}

// TestReplaceUnderHeldViews: run B's .mrkl and container are replaced by
// run A's through Store.Create while a comparison holds both open — from
// the fault hook, when B's .mrkl is priced, before either lands as a view
// — and the comparison still answers for the bytes it opened: the
// oracle's verdict on the old pair. The next comparison sees the new
// files, two identical runs.
func TestReplaceUnderHeldViews(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(81))
	hook := &replaceOnPrice{store: env.store, on: MetadataName(env.nameB)}
	for _, name := range []string{env.nameA, MetadataName(env.nameA)} {
		hook.names = append(hook.names, strings.Replace(name, "runA", "runB", 1))
		hook.bytes = append(hook.bytes, readStoreFile(t, env.store, name))
	}
	env.store.SetFaultHook(hook)
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	env.store.SetFaultHook(nil)
	if err != nil || !hook.done {
		t.Fatalf("comparison: %v, replaced %v", err, hook.done)
	}
	assertSameDiffs(t, groundTruth(t, env, 1e-5), diffsToMap(res.Diffs), "held")
	if res, err = CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); err != nil || res.DiffCount != 0 {
		t.Fatalf("after the replace: %v, %d diffs; want run A against itself", err, res.DiffCount)
	}
}

// replaceOnPrice writes bytes[i] to names[i] through Store.Create the first
// time the store file on is priced.
type replaceOnPrice struct {
	faults.Nop
	store *pfs.Store
	on    string
	names []string
	bytes [][]byte
	done  bool
}

func (h *replaceOnPrice) BeforeRead(name string, _ int64, _ int) error {
	if name != h.on || h.done {
		return nil
	}
	h.done = true
	for i, n := range h.names {
		w, err := h.store.Create(n)
		if err != nil {
			return err
		}
		_, err = w.Write(h.bytes[i])
		if err = cmp.Or(err, w.Close()); err != nil {
			return err
		}
	}
	return nil
}

func readStoreFile(t *testing.T, s *pfs.Store, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(s.Root(), filepath.FromSlash(name)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeStoreFile(t *testing.T, s *pfs.Store, name string, b []byte) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRungRereadsIntoItsOwnBuffer: a side that fails its leaf hash is
// re-read into a buffer of the rung's own, never into the bytes it was
// handed, which may be a read-only view of the file: the view here shows
// another chunk of the file, the re-read the right one.
func TestRungRereadsIntoItsOwnBuffer(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 4 << 10
	content := make([]byte, 2*chunk)
	for i := range content {
		content[i] = byte(i / 4 % 251)
	}
	w, err := store.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := store.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := errbound.NewHasher(errbound.Float32, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.HashChunk(content[chunk:])
	if err != nil {
		t.Fatal(err)
	}
	view, err := f.Land(0, chunk)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := verifyLeaf(context.Background(), h, view, want, f, chunk)
	if got == nil || &got[0] == &view[0] || !bytes.Equal(got, content[chunk:]) {
		t.Fatalf("the rung returned %d bytes, aliasing the view %v; want the re-read chunk in its own buffer", len(got), got != nil && &got[0] == &view[0])
	}
	if !bytes.Equal(view, content[:chunk]) {
		t.Fatal("the rung wrote to the bytes it was handed")
	}
}
