package ckpt

import (
	"errors"
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

// TestWriteCheckpointPartialCostOnError pins the satellite fix: a torn
// write mid-container still reports the persisted prefix in the cost.
func TestWriteCheckpointPartialCostOnError(t *testing.T) {
	store := newStore(t)
	// After: 1 skips the header write and tears the first field write, so
	// the partial cost must cover the header plus the 512-byte torn prefix.
	inj := faults.New(6, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: 1, Count: 1, Keep: 512})
	store.SetFaultHook(inj)
	cost, err := WriteCheckpoint(store, twoFieldMeta(), [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)})
	store.SetFaultHook(nil)
	if err == nil {
		t.Fatal("torn write did not surface")
	}
	if cost.Bytes <= 512 {
		t.Fatalf("partial cost %d bytes, want header + 512-byte torn prefix", cost.Bytes)
	}
}

// TestCapturePartialCostOnError pins the same discipline on the two-tier
// path: local-tier cost accumulates even when the encode write fails.
func TestCapturePartialCostOnError(t *testing.T) {
	local := newStore(t)
	remote := newStore(t)
	c := NewCheckpointer(local, remote, 1)
	inj := faults.New(7, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: 1, Count: 1, Keep: 256})
	local.SetFaultHook(inj)
	err := c.Capture(twoFieldMeta(), [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)})
	local.SetFaultHook(nil)
	if err == nil {
		t.Fatal("torn local write did not surface")
	}
	lc, _ := c.Costs()
	if lc.Bytes <= 256 {
		t.Fatalf("local cost %d bytes on error, want header + 256-byte torn prefix", lc.Bytes)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushPartialCostOnError: remote-tier cost accumulates when the
// background flush dies mid-write.
func TestFlushPartialCostOnError(t *testing.T) {
	local := newStore(t)
	remote := newStore(t)
	c := NewCheckpointer(local, remote, 1)
	inj := faults.New(8, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", Count: 1, Keep: 128})
	remote.SetFaultHook(inj)
	if err := c.Capture(twoFieldMeta(), [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}); err != nil {
		t.Fatal(err)
	}
	ferr := c.Flush()
	remote.SetFaultHook(nil)
	if ferr == nil {
		t.Fatal("torn remote flush did not surface")
	}
	_, rc := c.Costs()
	if rc.Bytes != 128 {
		t.Fatalf("remote cost %d bytes on error, want the 128-byte torn prefix", rc.Bytes)
	}
	if err := c.Close(); err == nil {
		t.Log("close after flush error returned nil (flush error already consumed)")
	}
}
