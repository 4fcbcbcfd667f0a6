package compare

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

var errStorage = errors.New("injected storage fault")

// TestMerkleSurvivesNothingButReportsReadFaults injects a read fault at
// various depths of the comparison and checks the error surfaces cleanly
// (no hang, no partial result).
func TestMerkleReadFaultPropagates(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(55))
	// Fault during metadata read (first reads of the comparison).
	faults.FailReads(env.store, 0, errStorage)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("metadata-read fault error = %v", err)
	}
	// Fault later, inside the verification pipeline's scattered reads
	// (ops 1-3 are the metadata reads; coalescing merges the candidate
	// chunks into a handful of runs, so op 6 lands mid-verification).
	env.store.EvictAll()
	faults.FailReads(env.store, 6, errStorage)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("verification-read fault error = %v", err)
	}
	// Disarmed: succeeds again.
	faults.FailReads(env.store, 0, nil)
	env.store.EvictAll()
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); err != nil {
		t.Errorf("post-fault comparison failed: %v", err)
	}
}

func TestDirectReadFaultPropagates(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(56))
	faults.FailReads(env.store, 3, errStorage)
	if _, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("direct fault error = %v", err)
	}
}

func TestAllCloseReadFaultPropagates(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(57))
	faults.FailReads(env.store, 2, errStorage)
	if _, _, err := CompareAllClose(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("allclose fault error = %v", err)
	}
}

func TestMerkleFaultWithMmapBackend(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	opts.Backend = aio.Mmap{}
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(58))
	faults.FailReads(env.store, 10, errStorage)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("mmap fault error = %v", err)
	}
}

// TestBuildAndSaveWriteFault: a metadata save that fails — in a write, or
// in the close after every byte was written — is the build's error and
// hands back no metadata; a retry without the fault replaces the file.
func TestBuildAndSaveWriteFault(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 16<<10, opts, synth.DefaultPerturb(59))
	for _, rule := range []faults.Rule{
		{Kind: faults.PermanentWrite, Err: errStorage},
		{Kind: faults.FailClose, Name: ".mrkl", Err: errStorage},
	} {
		env.store.SetFaultHook(faults.New(0, rule))
		m, _, err := BuildAndSave(context.Background(), env.store, env.nameA, opts)
		env.store.SetFaultHook(nil)
		if m != nil || !errors.Is(err, errStorage) {
			t.Errorf("%s: metadata %v, error %v; want none and the injected fault", rule.Kind, m, err)
		}
		if _, _, err := BuildAndSave(context.Background(), env.store, env.nameA, opts); err != nil {
			t.Errorf("%s: retry after the fault failed: %v", rule.Kind, err)
		}
	}
}

// TestBuildAndSaveRefusesTruncatedContainer: a torn capture — the file ends
// 100 000 bytes before its header says it does — must not become a
// valid-looking history entry. At the parent commit this returned nil and
// saved a .mrkl whose last leaves were hashes of zeros.
func TestBuildAndSaveRefusesTruncatedContainer(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	meta := ckpt.Meta{RunID: "torn", Fields: []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 64 << 10},
		{Name: "phi", DType: errbound.Float32, Count: 64 << 10},
	}}
	data := [][]byte{synth.FieldF32(64<<10, 1), synth.FieldF32(64<<10, 2)}
	if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
		t.Fatal(err)
	}
	name := ckpt.Name(meta.RunID, 0, 0)
	path := filepath.Join(store.Root(), name)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOpts(1e-5, 4<<10)

	// Cut under an open reader: the build's own read runs off the end.
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := os.Truncate(path, st.Size()-100_000); err != nil {
		t.Fatal(err)
	}
	if m, _, _, err := BuildFromReader(context.Background(), r, opts); m != nil || !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("BuildFromReader over the cut: metadata %v, error %v; want ckpt.ErrCorrupt", m, err)
	}

	// Already cut when the tool comes to it.
	if m, _, err := BuildAndSave(context.Background(), store, name, opts); m != nil || !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("BuildAndSave of the cut file: metadata %v, error %v; want ckpt.ErrCorrupt", m, err)
	}
	if _, err := os.Stat(filepath.Join(store.Root(), MetadataName(name))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("metadata was saved for a truncated container (stat: %v)", err)
	}
}
