package compare

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
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

// TestRungRereadsIntoItsOwnBuffer: a side that fails its leaf hash is
// re-read into the side's own buffer, never into the bytes it was handed,
// which may be a read-only view of the file: the view here shows another
// chunk of the file, the re-read the right one.
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
	view, err := f.Land(make([]byte, chunk), 0)
	if err != nil {
		t.Fatal(err)
	}
	own := make([]byte, chunk)
	got, _ := verifyLeaf(context.Background(), h, view, own, want, f, chunk)
	if got == nil || &got[0] != &own[0] || !bytes.Equal(got, content[chunk:]) {
		t.Fatalf("the rung returned %d bytes, own buffer %v; want the re-read chunk in its own buffer", len(got), got != nil && &got[0] == &own[0])
	}
	if !bytes.Equal(view, content[:chunk]) {
		t.Fatal("the rung wrote to the bytes it was handed")
	}
}
