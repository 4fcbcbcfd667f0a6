package compare

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// diffFixture is a fresh store with its CAS and one capturer on them.
func diffFixture(t *testing.T, opts Options) (*pfs.Store, *cas.Store, *DiffCapturer) {
	t.Helper()
	env := newDiffEnv(t, opts)
	capt, err := NewDiffCapturer(env.store, env.cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return env.store, env.cs, capt
}

// diffMeta is the two-field checkpoint of the capturer tests: 16 chunks a
// field at 4 KiB.
func diffMeta(iter int) ckpt.Meta {
	return ckpt.Meta{RunID: "run", Iteration: iter, Fields: f32Fields([]string{"x", "phi"}, 16384)}
}

// savedCaptureAgrees loads what a capture saved and holds it to want, the
// from-scratch in-memory build of the same data: the manifest's digests leaf
// for leaf, the metadata leaf for leaf and root for root.
func savedCaptureAgrees(t *testing.T, store *pfs.Store, meta ckpt.Meta, want *Metadata) {
	t.Helper()
	name := ckpt.Name(meta.RunID, meta.Iteration, meta.Rank)
	man, _, err := cas.LoadManifest(context.Background(), store, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Fields) != len(want.Fields) {
		t.Fatalf("manifest has %d fields, want %d", len(man.Fields), len(want.Fields))
	}
	for fi, f := range want.Fields {
		fm := man.Fields[fi]
		if fm.Name != f.Name || fm.DType != f.DType || fm.Bytes() != f.Tree.DataLen() || len(fm.Digests) != f.Tree.NumChunks() {
			t.Fatalf("manifest field %d: %q %v %d bytes %d digests, want %q %v %d bytes %d", fi,
				fm.Name, fm.DType, fm.Bytes(), len(fm.Digests), f.Name, f.DType, f.Tree.DataLen(), f.Tree.NumChunks())
		}
		for ci, d := range fm.Digests {
			if d != f.Tree.Leaf(ci) {
				t.Fatalf("manifest field %q digest %d: %v, want %v", f.Name, ci, d, f.Tree.Leaf(ci))
			}
		}
	}
	saved, _, _, err := LoadMetadata(context.Background(), store, name)
	if err != nil {
		t.Fatal(err)
	}
	sameMetadata(t, saved, want)
}

// changedLeaves counts the leaves in which two builds of one schema differ.
func changedLeaves(a, b *Metadata) int {
	n := 0
	for fi := range a.Fields {
		for ci := 0; ci < a.Fields[fi].Tree.NumChunks(); ci++ {
			if a.Fields[fi].Tree.Leaf(ci) != b.Fields[fi].Tree.Leaf(ci) {
				n++
			}
		}
	}
	return n
}

// TestDiffCaptureColdThenWarm: the first capture of a rank is cold and
// stores every chunk; the next one updates exactly the leaves that moved,
// stores exactly those chunks, and its manifest's extents reproduce the data.
func TestDiffCaptureColdThenWarm(t *testing.T) {
	pool := device.NewPool(4)
	defer pool.Close()
	opts := Options{Epsilon: 1e-5, ChunkSize: 4 << 10, Exec: pool}
	store, cs, capt := diffFixture(t, opts)

	data0 := [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}
	rep0, err := capt.Capture(context.Background(), diffMeta(0), data0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep0.Cold || rep0.UpdatedLeaves != 0 || rep0.RehashedNodes != 0 {
		t.Fatalf("first capture not cold: %+v", rep0)
	}
	if rep0.Stats.ChunksWritten != rep0.Stats.Chunks || rep0.Stats.DedupHits != 0 {
		t.Fatalf("cold capture stats %+v", rep0.Stats)
	}

	// Warm capture: mutate two chunks of field 0, leave field 1 untouched.
	data1 := [][]byte{append([]byte{}, data0[0]...), data0[1]}
	copy(data1[0][0:], synth.FieldF32(1024, 99))      // chunk 0
	copy(data1[0][8<<10:], synth.FieldF32(1024, 100)) // chunk 2
	rep1, err := capt.Capture(context.Background(), diffMeta(1), data1)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Cold || rep1.UpdatedLeaves != 2 || rep1.RehashedNodes == 0 {
		t.Fatalf("warm capture: cold=%v, %d leaves updated, %d nodes rehashed; want 2 leaves", rep1.Cold, rep1.UpdatedLeaves, rep1.RehashedNodes)
	}
	for fi := range rep1.Manifest.Fields {
		var changed []int
		for ci, d := range rep1.Manifest.Fields[fi].Digests {
			if d != rep0.Manifest.Fields[fi].Digests[ci] {
				changed = append(changed, ci)
			}
		}
		if fi == 0 && (len(changed) != 2 || changed[0] != 0 || changed[1] != 2) || fi == 1 && len(changed) != 0 {
			t.Fatalf("changed chunks of field %d: %v, want [0 2] and none", fi, changed)
		}
	}
	if rep1.Stats.ChunksWritten != 2 || rep1.Stats.DedupHits != rep1.Stats.Chunks-2 {
		t.Fatalf("warm capture stats %+v, want 2 chunks written and the rest dedup hits", rep1.Stats)
	}

	// The manifest round-trips and its extents reproduce the data.
	m, _, err := cas.LoadManifest(context.Background(), store, ckpt.Name("run", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !cas.SameSchema(m, rep1.Manifest) {
		t.Fatal("loaded manifest schema differs")
	}
	f, err := cs.Pack()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for fi := range m.Fields {
		for ci, loc := range m.Fields[fi].Locs {
			buf := make([]byte, loc.Len)
			if _, _, err := f.ReadAt(buf, loc.Off); err != nil {
				t.Fatal(err)
			}
			lo := ci * m.ChunkSize
			if string(buf) != string(data1[fi][lo:lo+int(loc.Len)]) {
				t.Fatalf("field %d chunk %d differs after gather", fi, ci)
			}
		}
	}
}

// TestDiffCaptureSchemaChangeGoesCold: a previous tree is updated only into a
// checkpoint with the same field names, dtypes, lengths and chunking. Any
// other change goes cold — a full build, never an error — and what is saved
// is the from-scratch build either way.
func TestDiffCaptureSchemaChangeGoesCold(t *testing.T) {
	opts := Options{Epsilon: 1e-5, ChunkSize: 4 << 10}
	store, _, capt := diffFixture(t, opts)
	base := diffMeta(0).Fields
	with := func(edit func(f *ckpt.FieldSpec)) []ckpt.FieldSpec {
		fields := append([]ckpt.FieldSpec{}, base...)
		edit(&fields[1])
		return fields
	}
	steps := []struct {
		name   string
		fields []ckpt.FieldSpec
		cold   bool
	}{
		{"first", base, true},
		{"same schema", base, false},
		{"field renamed", with(func(f *ckpt.FieldSpec) { f.Name = "psi" }), true},
		{"field shortened", with(func(f *ckpt.FieldSpec) { f.Count = 16000 }), true},
		{"same bytes, other dtype", with(func(f *ckpt.FieldSpec) { f.DType, f.Count = errbound.Float64, 8192 }), true},
		{"field dropped", base[:1], true},
		{"back to the first schema", base, true},
		{"and again", base, false},
	}
	for it, st := range steps {
		data := make([][]byte, len(st.fields))
		for i, f := range st.fields {
			if f.DType == errbound.Float64 {
				data[i] = f64Field(int(f.Count), int64(10*it+i))
			} else {
				data[i] = synth.FieldF32(int(f.Count), int64(10*it+i))
			}
		}
		meta := ckpt.Meta{RunID: "run", Iteration: it, Fields: st.fields}
		rep, err := capt.Capture(context.Background(), meta, data)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if rep.Cold != st.cold {
			t.Errorf("%s: cold=%v, want %v", st.name, rep.Cold, st.cold)
		}
		want, _, err := Build(st.fields, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		savedCaptureAgrees(t, store, meta, want)
	}
}

// TestDiffCapturePartialCostOnError: a capture that dies in its second
// field's put, or in the close of its manifest, still reports the writes
// that completed, and nothing takes it for done: it reports no manifest, and
// the next capture of the rank has no previous state to update from.
func TestDiffCapturePartialCostOnError(t *testing.T) {
	data := [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}
	for _, rule := range []faults.Rule{
		// Fail pack writes after the first: field 0 lands, field 1 tears.
		{Kind: faults.PermanentWrite, Name: "cas/pack", After: 1, Count: -1},
		// Every chunk lands; the manifest's close fails.
		{Kind: faults.FailClose, Name: ".cman"},
	} {
		store, _, capt := diffFixture(t, Options{Epsilon: 1e-5, ChunkSize: 4 << 10})
		store.SetFaultHook(faults.New(5, rule))
		rep, err := capt.Capture(context.Background(), diffMeta(0), data)
		store.SetFaultHook(nil)
		if err == nil {
			t.Fatalf("%s: injected fault did not surface", rule.Kind)
		}
		if rep.Cost.Bytes == 0 || rep.Stats.ChunksWritten == 0 {
			t.Fatalf("%s: error path dropped the partial capture cost or stats: %+v", rule.Kind, rep)
		}
		if rep.Manifest != nil {
			t.Fatalf("%s: a failed capture reports a manifest it did not save", rule.Kind)
		}
		next, err := capt.Capture(context.Background(), diffMeta(1), data)
		if err != nil || !next.Cold {
			t.Fatalf("%s: the capture after a failed one: cold %v, err %v; want a cold capture", rule.Kind, next.Cold, err)
		}
	}
}

// capturedFiles lists the manifests and metadata files on a store.
func capturedFiles(t *testing.T, store *pfs.Store) []string {
	t.Helper()
	names, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if strings.HasSuffix(n, ".cman") || strings.HasSuffix(n, ".mrkl") {
			out = append(out, n)
		}
	}
	return out
}

// TestDiffCaptureRejectsBadShapes: a checkpoint no container could hold is
// refused before anything is hashed or written — the store has no manifest
// and no metadata for it and the CAS is where it was. (A zero-count field
// used to put the other fields' chunks in the pack and save a manifest no
// metadata was ever built for.)
func TestDiffCaptureRejectsBadShapes(t *testing.T) {
	store, cs, capt := diffFixture(t, Options{Epsilon: 1e-5, ChunkSize: 4 << 10})
	good := [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}
	if _, err := capt.Capture(context.Background(), diffMeta(0), good); err != nil {
		t.Fatal(err)
	}
	files, packSize, digests := capturedFiles(t, store), cs.PackSize(), cs.Len()

	fresh := [][]byte{synth.FieldF32(16384, 3), synth.FieldF32(16384, 4)}
	cases := []struct {
		name string
		edit func(m *ckpt.Meta, data [][]byte) [][]byte
	}{
		{"zero-count field", func(m *ckpt.Meta, data [][]byte) [][]byte {
			m.Fields[1].Count = 0
			return [][]byte{data[0], nil}
		}},
		{"short buffer", func(m *ckpt.Meta, data [][]byte) [][]byte { return [][]byte{data[0], data[1][:4096]} }},
		{"unknown dtype", func(m *ckpt.Meta, data [][]byte) [][]byte {
			m.Fields[1].DType = errbound.DType(99)
			return data
		}},
		{"missing buffer", func(m *ckpt.Meta, data [][]byte) [][]byte { return data[:1] }},
		{"unnamed field", func(m *ckpt.Meta, data [][]byte) [][]byte {
			m.Fields[1].Name = ""
			return data
		}},
		{"no fields", func(m *ckpt.Meta, data [][]byte) [][]byte {
			m.Fields = nil
			return nil
		}},
	}
	for i, c := range cases {
		meta := diffMeta(1 + i)
		data := c.edit(&meta, fresh)
		if _, err := capt.Capture(context.Background(), meta, data); err == nil {
			t.Errorf("%s: capture accepted", c.name)
		}
		if got := capturedFiles(t, store); len(got) != len(files) {
			t.Errorf("%s: a rejected capture left files behind: %v", c.name, got)
		}
		if cs.PackSize() != packSize || cs.Len() != digests {
			t.Errorf("%s: a rejected capture moved the CAS: pack %d → %d bytes, %d → %d digests",
				c.name, packSize, cs.PackSize(), digests, cs.Len())
		}
	}
}

// cancelAtItem is a serial executor that, once armed with a cancel function,
// calls it when the first item of a loop has run and counts the items it
// hands out after that.
type cancelAtItem struct {
	cancel context.CancelFunc
	after  int
}

func (e *cancelAtItem) Workers() int { return 1 }
func (e *cancelAtItem) For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
		switch {
		case e.cancel == nil:
		case i == 0:
			e.cancel()
		default:
			e.after++
		}
	}
}

// writeLog adds up what is written to a store and, with cancelOn set, cancels
// a context when the first write to a file of that name begins.
type writeLog struct {
	blockFaults
	cancelOn string
	cancel   context.CancelFunc
	writes   atomic.Int64
	bytes    atomic.Int64
}

func (w *writeLog) BeforeWrite(name string, _ int64, n int) (int, error) {
	if w.cancelOn != "" && strings.Contains(name, w.cancelOn) && w.writes.Load() == 0 {
		w.cancel()
	}
	w.writes.Add(1)
	w.bytes.Add(int64(n))
	return 0, nil
}

// TestDiffCaptureCancelMidway cancels a capture at each of the two places it
// looks at its context — inside the leaf loop, and between the fields' puts
// (here from inside the first pack write) — and wants the context's error,
// no manifest and no metadata, a report whose cost and stats are exactly
// what reached the store, and a next capture that still updates from the
// last one that succeeded. (The capturer used to run to completion and
// return nil: its context was read once, on entry.)
func TestDiffCaptureCancelMidway(t *testing.T) {
	fields := f32Fields([]string{"x", "y", "z"}, 64<<10) // 3 × 4 memory blocks, 3 × 64 chunks
	data0 := [][]byte{synth.FieldF32(64<<10, 1), synth.FieldF32(64<<10, 2), synth.FieldF32(64<<10, 3)}
	data1, data2 := evolve(data0, 100), evolve(data0, 200)
	meta := func(it int) ckpt.Meta { return ckpt.Meta{RunID: "run", Iteration: it, Fields: fields} }

	for _, where := range []string{"leaf loop", "first pack write"} {
		t.Run(where, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			exec := &cancelAtItem{}
			opts := Options{Epsilon: 1e-5, ChunkSize: 4 << 10, Exec: exec}
			store, cs, capt := diffFixture(t, opts)
			if _, err := capt.Capture(ctx, meta(0), data0); err != nil {
				t.Fatal(err)
			}
			files, packSize := capturedFiles(t, store), cs.PackSize()

			hook := &writeLog{cancel: cancel}
			if where == "leaf loop" {
				exec.cancel = cancel
			} else {
				hook.cancelOn = cas.PackName
			}
			store.SetFaultHook(hook)
			rep, err := capt.Capture(ctx, meta(1), data1)
			store.SetFaultHook(nil)
			exec.cancel = nil
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled capture returned %v", err)
			}
			if got := capturedFiles(t, store); len(got) != len(files) {
				t.Errorf("a canceled capture saved %v", got)
			}
			if rep.Manifest != nil || rep.Cost.Bytes != hook.bytes.Load() || rep.Stats.BytesWritten != cs.PackSize()-packSize {
				t.Errorf("report %+v; the store took %d bytes, the pack grew by %d", rep, hook.bytes.Load(), cs.PackSize()-packSize)
			}
			if where == "leaf loop" {
				// The loop had 11 more items to hand out; none of them may
				// have led to a write.
				if exec.after != 11 || hook.writes.Load() != 0 {
					t.Errorf("%d items handed out after the cancel, %d writes", exec.after, hook.writes.Load())
				}
			} else if rep.Stats.Chunks != 64 || rep.Stats.ChunksWritten == 0 {
				// One field's put was under way and completes; the other two
				// never start.
				t.Errorf("stats %+v, want the first field's 64 chunks offered and no more", rep.Stats)
			}

			// The rank's previous state is still iteration 0.
			rep, err = capt.Capture(context.Background(), meta(2), data2)
			if err != nil {
				t.Fatal(err)
			}
			m0, _, _ := Build(fields, data0, opts)
			m2, _, err := Build(fields, data2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := changedLeaves(m0, m2); rep.Cold || rep.UpdatedLeaves != want || want == 0 {
				t.Errorf("capture after the canceled one: cold=%v, %d leaves updated, want %d", rep.Cold, rep.UpdatedLeaves, want)
			}
			savedCaptureAgrees(t, store, meta(2), m2)
		})
	}
}
