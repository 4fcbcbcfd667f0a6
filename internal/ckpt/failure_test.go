package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

var errInjected = errors.New("injected storage fault")

func TestCheckpointerSurfacesFlushFailure(t *testing.T) {
	local := newStore(t)
	remote, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCheckpointer(local, remote, 1)
	defer c.Close()

	meta := testMeta("flushfail", 0, 0, 64)
	faults.FailWrites(remote, 0, errInjected)
	if err := c.Capture(meta, testData(meta, 1)); err != nil {
		t.Fatalf("capture itself must succeed (local tier is healthy): %v", err)
	}
	if err := c.Flush(); !errors.Is(err, errInjected) {
		t.Errorf("Flush error = %v, want injected fault", err)
	}
}

func TestCheckpointerLocalWriteFailureIsSynchronous(t *testing.T) {
	local := newStore(t)
	remote, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCheckpointer(local, remote, 1)
	defer c.Close()
	faults.FailWrites(local, 0, errInjected)
	meta := testMeta("localfail", 0, 0, 64)
	if err := c.Capture(meta, testData(meta, 2)); !errors.Is(err, errInjected) {
		t.Errorf("capture error = %v, want injected fault", err)
	}
	// The checkpointer remains usable for later captures.
	meta2 := testMeta("localfail", 10, 0, 64)
	if err := c.Capture(meta2, testData(meta2, 3)); err != nil {
		t.Errorf("capture after local fault failed: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Errorf("flush after recovery failed: %v", err)
	}
}

func TestReaderFaultDuringField(t *testing.T) {
	s := newStore(t)
	meta := testMeta("rf", 0, 0, 4096)
	if _, err := WriteCheckpoint(s, meta, testData(meta, 4)); err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenReader(s, Name("rf", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	faults.FailReads(s, 0, errInjected)
	if _, _, err := r.ReadField(0); !errors.Is(err, errInjected) {
		t.Errorf("ReadField error = %v", err)
	}
	if _, _, err := r.ReadField(0); err != nil {
		t.Errorf("ReadField after fault failed: %v", err)
	}
}

// twoFieldMeta is a two-field, 128 KiB checkpoint: large enough that a write
// torn a few hundred bytes in is mid-field.
func twoFieldMeta() Meta {
	return Meta{RunID: "run", Fields: []FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 16384},
		{Name: "phi", DType: errbound.Float32, Count: 16384},
	}}
}

// twoFieldData is twoFieldMeta's content.
func twoFieldData() [][]byte {
	return [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}
}

// closeFault fails the close of every checkpoint writer, after all of its
// bytes were written.
var closeFault = faults.Rule{Kind: faults.FailClose, Name: ".ckpt", Count: -1}

// landed is what a failed write left in the store: the torn prefix, or —
// torn 0, a failed close — the whole container the store holds for meta.
func landed(t *testing.T, store *pfs.Store, meta Meta, torn int64) int64 {
	t.Helper()
	if torn > 0 {
		return torn
	}
	f, err := store.Open(Name(meta.RunID, meta.Iteration, meta.Rank))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return f.Size()
}

// TestWriteCheckpointPartialCostOnError: a torn write mid-container still
// reports the persisted prefix in the cost, and a close that fails after
// every byte was written is an error all the same — the container is not
// known to be durable — with a cost that covers all of it.
func TestWriteCheckpointPartialCostOnError(t *testing.T) {
	for _, row := range []struct {
		name string
		rule faults.Rule
		torn int64
	}{
		// After: 1 skips the first field's write and tears the second's,
		// so the cost covers the first field plus the 512-byte torn
		// prefix; the header, written last, never lands.
		{"torn-write", faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: 1, Count: 1, Keep: 512}, 512},
		{"failed-close", closeFault, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			store := newStore(t)
			inj := faults.New(6, row.rule)
			store.SetFaultHook(inj)
			cost, err := WriteCheckpoint(store, twoFieldMeta(), twoFieldData())
			store.SetFaultHook(nil)
			if !errors.Is(err, faults.ErrInjectedWrite) {
				t.Fatalf("WriteCheckpoint returned %v, want the injected fault", err)
			}
			least := landed(t, store, twoFieldMeta(), row.torn)
			if row.torn > 0 {
				least++ // the first field landed before the torn write
			}
			if cost.Bytes < least {
				t.Fatalf("partial cost %d bytes, want at least %d", cost.Bytes, least)
			}
			if st := inj.Stats(); st.TornWrites+st.FailedCloses != 1 {
				t.Fatalf("injector stats %+v, want the one fault", st)
			}
		})
	}
}

// TestTornCheckpointWrite tears each of a checkpoint's writes in turn —
// every field's, then the header's, which goes last — at no bytes, a few,
// half and all but one: the file Close publishes anyway is refused as
// ErrCorrupt, it is as long as what landed (the reservation keeps the
// size), and the cost is exactly what landed. A close that fails after
// every write landed publishes the whole container, which opens and
// verifies, at the whole cost.
func TestTornCheckpointWrite(t *testing.T) {
	meta, data := twoFieldMeta(), twoFieldData()
	e, err := newEncoding(meta, data)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen, size := int64(len(e.hdr)), e.size()
	name := Name(meta.RunID, meta.Iteration, meta.Rank)
	// The writes in their order: the fields', then the header's.
	writes := []string{"field-x", "field-phi", "header"}
	lens := []int64{meta.Fields[0].Bytes(), meta.Fields[1].Bytes(), hdrLen}
	for op, n := range lens {
		for _, keep := range []int64{0, 3, n / 2, n - 1} {
			t.Run(fmt.Sprintf("%s/keep-%d", writes[op], keep), func(t *testing.T) {
				store := newStore(t)
				store.SetFaultHook(faults.New(1, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: op, Keep: int(keep)}))
				cost, err := WriteCheckpoint(store, meta, data)
				store.SetFaultHook(nil)
				if !errors.Is(err, faults.ErrInjectedWrite) {
					t.Fatalf("WriteCheckpoint returned %v, want the injected fault", err)
				}
				want := pfs.Cost{Ops: op, Bytes: keep}
				for _, l := range lens[:op] {
					want.Bytes += l
				}
				if keep > 0 {
					want.Ops++
				}
				if cost != want {
					t.Fatalf("cost %+v, want what landed, %+v", cost, want)
				}
				wantSize := hdrLen + want.Bytes
				if op == len(lens)-1 {
					wantSize = size
				} else if want.Bytes == 0 {
					wantSize = 0
				}
				st, err := os.Stat(filepath.Join(store.Root(), name))
				if err != nil {
					t.Fatal(err)
				}
				if st.Size() != wantSize {
					t.Fatalf("published file of %d bytes, want %d", st.Size(), wantSize)
				}
				if r, _, err := OpenReader(store, name); !errors.Is(err, ErrCorrupt) {
					if r != nil {
						r.Close()
					}
					t.Fatalf("OpenReader returned %v, want ErrCorrupt", err)
				}
			})
		}
	}
	t.Run("failed-close", func(t *testing.T) {
		store := newStore(t)
		store.SetFaultHook(faults.New(1, closeFault))
		cost, err := WriteCheckpoint(store, meta, data)
		store.SetFaultHook(nil)
		if !errors.Is(err, faults.ErrInjectedWrite) {
			t.Fatalf("WriteCheckpoint returned %v, want the injected fault", err)
		}
		if want := (pfs.Cost{Ops: len(lens), Bytes: size}); cost != want {
			t.Fatalf("cost %+v, want %+v", cost, want)
		}
		r, _, err := OpenReader(store, name)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := range meta.Fields {
			if _, err := r.VerifyField(i); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCapturePartialCostOnError pins the same discipline on the two-tier
// path: local-tier cost accumulates even when the local write fails, and
// a capture whose local write failed is never flushed.
func TestCapturePartialCostOnError(t *testing.T) {
	for _, row := range []struct {
		name string
		rule faults.Rule
		torn int64
	}{
		{"torn-write", faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: 1, Count: 1, Keep: 256}, 256},
		{"failed-close", closeFault, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			local, remote := newStore(t), newStore(t)
			c := NewCheckpointer(local, remote, 1)
			local.SetFaultHook(faults.New(7, row.rule))
			err := c.Capture(twoFieldMeta(), twoFieldData())
			local.SetFaultHook(nil)
			if err == nil {
				t.Fatal("the failed local write did not surface")
			}
			lc, _ := c.Costs()
			least := landed(t, local, twoFieldMeta(), row.torn)
			if row.torn > 0 {
				least++ // the first field landed before the torn write
			}
			if lc.Bytes < least {
				t.Fatalf("local cost %d bytes on error, want at least %d", lc.Bytes, least)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if f, err := remote.Open(Name("run", 0, 0)); err == nil {
				f.Close()
				t.Fatal("a capture whose local write failed was flushed to the remote tier")
			}
		})
	}
}

// TestFlushPartialCostOnError: remote-tier cost accumulates when the
// background flush dies mid-write, and a flush whose close fails after
// every byte was written is a flush error.
func TestFlushPartialCostOnError(t *testing.T) {
	for _, row := range []struct {
		name string
		rule faults.Rule
		torn int64
	}{
		{"torn-write", faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", Count: 1, Keep: 128}, 128},
		{"failed-close", closeFault, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			local, remote := newStore(t), newStore(t)
			c := NewCheckpointer(local, remote, 1)
			remote.SetFaultHook(faults.New(8, row.rule))
			if err := c.Capture(twoFieldMeta(), twoFieldData()); err != nil {
				t.Fatal(err)
			}
			ferr := c.Flush()
			remote.SetFaultHook(nil)
			if !errors.Is(ferr, faults.ErrInjectedWrite) {
				t.Fatalf("Flush returned %v, want the injected fault", ferr)
			}
			if _, rc := c.Costs(); rc.Bytes != landed(t, local, twoFieldMeta(), row.torn) {
				t.Fatalf("remote cost %d bytes on error, want what landed", rc.Bytes)
			}
			if err := c.Close(); !errors.Is(err, faults.ErrInjectedWrite) {
				t.Fatalf("Close returned %v, want the flush error again", err)
			}
		})
	}
}
