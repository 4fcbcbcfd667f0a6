package chaos

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/framelog"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// shrinkHook halves a file between the moment a whole-file read opened it
// (and took its size) and the moment its first block is read.
type shrinkHook struct {
	faults.Nop
	store *pfs.Store
	name  string
}

func (h *shrinkHook) BeforeRead(name string, _ int64, _ int) error {
	if name != h.name {
		return nil
	}
	path := filepath.Join(h.store.Root(), filepath.FromSlash(name))
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, st.Size()/2)
}

// TestShortWholeFileReadIsAnError: a file that shrank after a whole-file
// read opened it — pfs.Store.ReadFileFull, or cas.LoadManifest's view —
// comes back as an error wrapping io.ErrUnexpectedEOF from every caller,
// never as content with a tail the read did not fill. One row per caller;
// each first proves the file reads whole.
func TestShortWholeFileReadIsAnError(t *testing.T) {
	ctx := context.Background()
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 8 << 10}}
	data := [][]byte{synth.FieldF32(8<<10, 1)}
	opts := compare.Options{Epsilon: 1e-5, ChunkSize: 4 << 10}
	meta := ckpt.Meta{RunID: "run", Iteration: 1, Rank: 0, Fields: fields}
	name := ckpt.Name("run", 1, 0)

	rows := []struct {
		name string
		// prepare writes the file and returns its store-relative name and
		// the read through the caller under test.
		prepare func(t *testing.T, store *pfs.Store) (file string, read func() error)
	}{
		{"ReadFileFull", func(t *testing.T, store *pfs.Store) (string, func() error) {
			w, err := store.Create("raw.dat")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(data[0]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return "raw.dat", func() error {
				got, _, err := store.ReadFileFull(ctx, "raw.dat", 4<<10)
				if err == nil && len(got) != len(data[0]) {
					t.Errorf("%d bytes returned for a %d-byte file", len(got), len(data[0]))
				}
				return err
			}
		}},
		{"compare.LoadMetadata", func(t *testing.T, store *pfs.Store) (string, func() error) {
			m, _, err := compare.Build(fields, data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := compare.SaveMetadata(store, name, m); err != nil {
				t.Fatal(err)
			}
			return compare.MetadataName(name), func() error {
				_, _, _, err := compare.LoadMetadata(ctx, store, name)
				return err
			}
		}},
		{"cas.LoadManifest", func(t *testing.T, store *pfs.Store) (string, func() error) {
			cs, _, err := cas.Open(ctx, store)
			if err != nil {
				t.Fatal(err)
			}
			capt, err := compare.NewDiffCapturer(store, cs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := capt.Capture(ctx, meta, data); err != nil {
				t.Fatal(err)
			}
			return cas.ManifestName(name), func() error {
				_, _, err := cas.LoadManifest(ctx, store, name)
				return err
			}
		}},
		{"framelog.Log.Read", func(t *testing.T, store *pfs.Store) (string, func() error) {
			log := framelog.Log{Store: store, Name: "log/frames", Magic: 0x4c4f4721}
			for i := 0; i < 4; i++ {
				if _, err := log.Append(data[0][:1000]); err != nil {
					t.Fatal(err)
				}
			}
			return "log/frames", func() error {
				_, _, err := log.Read(ctx)
				return err
			}
		}},
		{"catalog.Load", func(t *testing.T, store *pfs.Store) (string, func() error) {
			if err := catalog.Save(store, &catalog.Manifest{RunID: "run", App: "synth", Checkpoints: []catalog.Entry{{Name: name, Iteration: 1}}}); err != nil {
				t.Fatal(err)
			}
			return catalog.ManifestName("run"), func() error {
				_, err := catalog.Load(ctx, store, "run")
				return err
			}
		}},
		{"ckpt.Checkpointer flush", func(t *testing.T, store *pfs.Store) (string, func() error) {
			remote, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
			if err != nil {
				t.Fatal(err)
			}
			// The local write reads nothing: the hook may already be armed
			// by the time this row's read — capture, then flush — runs.
			return name, func() error {
				c := ckpt.NewCheckpointer(store, remote, 1)
				if err := c.Capture(meta, data); err != nil {
					t.Fatal(err)
				}
				return c.Close()
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
			if err != nil {
				t.Fatal(err)
			}
			file, read := row.prepare(t, store)
			if err := read(); err != nil {
				t.Fatalf("unfaulted read: %v", err)
			}
			store.SetFaultHook(&shrinkHook{store: store, name: file})
			defer store.SetFaultHook(nil)
			if err := read(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("read of a file that shrank under it: err = %v, want one wrapping io.ErrUnexpectedEOF", err)
			}
			if n := store.OpenHandles(); n != 0 {
				t.Errorf("%d handles left open", n)
			}
		})
	}
}
