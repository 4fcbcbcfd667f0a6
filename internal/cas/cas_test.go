package cas

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/framelog"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/synth"
)

func newStore(t *testing.T) (*pfs.Store, *Store) {
	t.Helper()
	fsys, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(context.Background(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	return fsys, s
}

func hashChunks(t *testing.T, h *errbound.Hasher, data []byte, chunkSize int) []murmur3.Digest {
	t.Helper()
	n := (len(data) + chunkSize - 1) / chunkSize
	out := make([]murmur3.Digest, n)
	for i := 0; i < n; i++ {
		lo, hi := i*chunkSize, (i+1)*chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		d, err := h.HashChunk(data[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func TestPutDedupAndRoundTrip(t *testing.T) {
	fsys, s := newStore(t)
	h, err := errbound.NewHasher(errbound.Float32, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 4 << 10
	data := synth.FieldF32(8192, 1) // 32 KiB + change → 8 chunks
	digests := hashChunks(t, h, data, chunk)

	locs, stats, cost, err := s.PutChunks(data, chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DedupHits != 0 || stats.ChunksWritten != len(digests) {
		t.Fatalf("first put: stats %+v", stats)
	}
	if cost.Bytes == 0 {
		t.Fatal("first put reported zero write bytes")
	}

	// Second put of the same content: all dedup hits, zero pack growth.
	before := s.PackSize()
	locs2, stats2, _, err := s.PutChunks(data, chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.DedupHits != len(digests) || stats2.ChunksWritten != 0 {
		t.Fatalf("second put: stats %+v", stats2)
	}
	if s.PackSize() != before {
		t.Fatalf("pack grew on pure-dedup put: %d -> %d", before, s.PackSize())
	}
	for i := range locs {
		if locs[i] != locs2[i] {
			t.Fatalf("chunk %d: locs differ %+v vs %+v", i, locs[i], locs2[i])
		}
	}

	// Every chunk reads back bit-identical from its extent.
	f, err := s.Pack()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, loc := range locs {
		buf := make([]byte, loc.Len)
		if _, _, err := f.ReadAt(buf, loc.Off); err != nil {
			t.Fatal(err)
		}
		lo := i * chunk
		if !bytes.Equal(buf, data[lo:lo+int(loc.Len)]) {
			t.Fatalf("chunk %d bytes differ after round trip", i)
		}
	}

	// Reopen: index replay reproduces the same state.
	s2, _, err := Open(context.Background(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() || s2.PackSize() != s.PackSize() {
		t.Fatalf("replay mismatch: %d/%d vs %d/%d", s2.Len(), s2.PackSize(), s.Len(), s.PackSize())
	}
	for i, d := range digests {
		loc, ok := s2.Lookup(d)
		if !ok || loc != locs[i] {
			t.Fatalf("replayed index lost chunk %d", i)
		}
	}
	if n, err := s2.Scrub(context.Background(), h.HashChunk); err != nil || n != len(digests) {
		t.Fatalf("scrub: n=%d err=%v", n, err)
	}
}

func TestPutIntraCallDedup(t *testing.T) {
	_, s := newStore(t)
	h, _ := errbound.NewHasher(errbound.Float32, 1e-5)
	const chunk = 4 << 10
	half := synth.FieldF32(2048, 7) // two chunks
	data := append(append([]byte{}, half...), half...)
	digests := hashChunks(t, h, data, chunk)

	_, stats, _, err := s.PutChunks(data, chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksWritten != 2 || stats.DedupHits != 2 {
		t.Fatalf("intra-call dedup: stats %+v", stats)
	}
}

// TestTornPackWriteNeverIndexed: a put whose pack write tears, or whose
// pack close fails after every byte was written, indexes none of the chunks
// it did not prove durable. Their bytes are an unreferenced hole: no digest
// resolves to them, and a retry appends past them and scrubs clean.
func TestTornPackWriteNeverIndexed(t *testing.T) {
	h, _ := errbound.NewHasher(errbound.Float32, 1e-5)
	const chunk = 4 << 10
	data := synth.FieldF32(8192, 3)
	digests := hashChunks(t, h, data, chunk)
	for _, row := range []struct {
		name string
		rule faults.Rule
		hole int64 // the pack bytes the failed put leaves behind
	}{
		// Tear the very first pack write mid-chunk: half a chunk persists.
		{"torn-write", faults.Rule{Kind: faults.TornWrite, Name: "cas/pack", Count: 1, Keep: chunk / 2}, chunk / 2},
		{"failed-close", faults.Rule{Kind: faults.FailClose, Name: "cas/pack"}, int64(len(data))},
	} {
		t.Run(row.name, func(t *testing.T) {
			fsys, s := newStore(t)
			fsys.SetFaultHook(faults.New(1, row.rule))
			_, stats, cost, err := s.PutChunks(data, chunk, digests)
			fsys.SetFaultHook(nil)
			if err == nil {
				t.Fatal("the failed pack write did not surface as an error")
			}
			if stats.ChunksWritten != 0 || s.Len() != 0 {
				t.Fatalf("the failed put indexed %d chunks (%d in the index)", stats.ChunksWritten, s.Len())
			}
			if cost.Bytes != row.hole || s.PackSize() != row.hole {
				t.Fatalf("partial cost %d bytes, pack %d; want %d (truthful accounting)", cost.Bytes, s.PackSize(), row.hole)
			}
			for _, d := range digests {
				if _, ok := s.Lookup(d); ok {
					t.Fatal("a chunk of the failed put became a dedup hit")
				}
			}
			locs, _, _, err := s.PutChunks(data, chunk, digests)
			if err != nil {
				t.Fatal(err)
			}
			if locs[0].Off != row.hole {
				t.Fatalf("retry did not append past the hole: off %d", locs[0].Off)
			}
			if _, err := s.Scrub(context.Background(), h.HashChunk); err != nil {
				t.Fatalf("scrub after the failed put: %v", err)
			}
			s2, _, err := Open(context.Background(), fsys)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s2.Scrub(context.Background(), h.HashChunk); err != nil || n != len(digests) {
				t.Fatalf("replayed scrub: n=%d err=%v", n, err)
			}
		})
	}
}

// indexPath is the index log's real filesystem path, for direct damage.
func indexPath(fsys *pfs.Store) string {
	return filepath.Join(fsys.Root(), filepath.FromSlash(IndexName))
}

func TestCorruptIndexDetected(t *testing.T) {
	fsys, s := newStore(t)
	h, _ := errbound.NewHasher(errbound.Float32, 1e-5)
	const chunk = 4 << 10
	data := synth.FieldF32(4096, 5)
	if _, _, _, err := s.PutChunks(data, chunk, hashChunks(t, h, data, chunk)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(indexPath(fsys))
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(raw []byte) error {
		t.Helper()
		if err := os.WriteFile(indexPath(fsys), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fsys.EvictAll()
		_, _, err := Open(context.Background(), fsys)
		return err
	}

	// Rot in a payload byte of a committed, complete frame — here a byte of
	// the second entry's pack offset: replay must refuse the store rather
	// than skip the frame as if a crash had torn it.
	rotted := bytes.Clone(good)
	rotted[framelog.HeaderSize+entrySize+murmur3.DigestSize] ^= 0x04
	if err := reopen(rotted); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload rot in a complete frame: err=%v, want ErrCorrupt", err)
	}
	// A well-framed entry that points past the pack is as fatal.
	if err := reopen(good); err != nil {
		t.Fatal(err)
	}
	idx := framelog.Log{Store: fsys, Name: IndexName, Magic: indexMagic, Size: int64(len(good))}
	if _, err := idx.Append(appendEntry(nil, murmur3.Digest{9}, Loc{Off: s.PackSize() - 1, Len: 2})); err != nil {
		t.Fatal(err)
	}
	fsys.EvictAll()
	if _, _, err := Open(context.Background(), fsys); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("extent past the pack: err=%v, want ErrCorrupt", err)
	}
	// So is a frame that is not whole entries.
	if err := reopen(good); err != nil {
		t.Fatal(err)
	}
	idx.Size = int64(len(good))
	if _, err := idx.Append(make([]byte, entrySize+1)); err != nil {
		t.Fatal(err)
	}
	fsys.EvictAll()
	if _, _, err := Open(context.Background(), fsys); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ragged frame: err=%v, want ErrCorrupt", err)
	}
}

// TestTornIndexAppendThenCapture tears an index append mid-entry and keeps
// capturing, in the next life and in the same one: the store opens clean,
// everything indexed before and after the tear resolves, Scrub is clean,
// and the torn bytes are one hole. (On the bare 32-byte record grid the
// first capture after the tear put every later record off-grid and Open
// failed for good: "index record at 32 fails CRC".)
func TestTornIndexAppendThenCapture(t *testing.T) {
	h, _ := errbound.NewHasher(errbound.Float32, 1e-5)
	const chunk = 4 << 10
	for _, sameProcess := range []bool{false, true} {
		fsys, s := newStore(t)
		put := func(s *Store, seed int64) ([]murmur3.Digest, error) {
			data := synth.FieldF32(4096, seed) // four chunks
			digests := hashChunks(t, h, data, chunk)
			_, _, _, err := s.PutChunks(data, chunk, digests)
			return digests, err
		}
		before, err := put(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		// 49 bytes: the frame header, one whole entry and 5 bytes of the next.
		fsys.SetFaultHook(faults.New(1, faults.Rule{Kind: faults.TornWrite, Name: "cas/index", Keep: 49}))
		torn, err := put(s, 2)
		fsys.SetFaultHook(nil)
		if err == nil {
			t.Fatal("torn index append did not surface as an error")
		}
		if !sameProcess {
			fsys.EvictAll()
			if s, _, err = Open(context.Background(), fsys); err != nil {
				t.Fatalf("reopen after the tear: %v", err)
			}
			if _, ok := s.Lookup(torn[0]); ok {
				t.Fatal("an entry of the torn frame was replayed")
			}
		}
		after, err := put(s, 3)
		if err != nil {
			t.Fatalf("sameProcess=%v: capture after a torn index append: %v", sameProcess, err)
		}

		fsys.EvictAll()
		s2, _, err := Open(context.Background(), fsys)
		if err != nil {
			t.Fatalf("sameProcess=%v: reopen after tear + capture: %v", sameProcess, err)
		}
		for _, d := range append(before, after...) {
			if _, ok := s2.Lookup(d); !ok {
				t.Fatalf("sameProcess=%v: a chunk indexed around the tear no longer resolves", sameProcess)
			}
		}
		if _, ok := s2.Lookup(torn[0]); ok {
			t.Fatalf("sameProcess=%v: an entry of the torn frame was replayed", sameProcess)
		}
		if n, err := s2.Scrub(context.Background(), h.HashChunk); err != nil || n != len(before)+len(after) {
			t.Fatalf("sameProcess=%v: scrub: n=%d err=%v", sameProcess, n, err)
		}
		raw, err := os.ReadFile(indexPath(fsys))
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		damage, _ := framelog.Replay(raw, indexMagic, func(int64, []byte) error { frames++; return nil })
		if frames != 2 || damage.Holes != 1 || damage.TornTailBytes != 0 || len(damage.BadCRC) != 0 {
			t.Fatalf("sameProcess=%v: index holds %d frames, damage %+v; want 2 frames around one hole",
				sameProcess, frames, damage)
		}
	}
}

// TestUnframedIndexRefusedByName: an index.log in the PR-7 layout (written
// by the parent commit: bare 32-byte records, no magic) is refused with an
// error that says what it is, never replayed as one silent hole into an
// empty store.
func TestUnframedIndexRefusedByName(t *testing.T) {
	raw, err := os.ReadFile("testdata/pr7_index.log")
	if err != nil {
		t.Fatal(err)
	}
	fsys, _ := newStore(t)
	if err := os.MkdirAll(filepath.Dir(indexPath(fsys)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath(fsys), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(context.Background(), fsys)
	if err == nil || !strings.Contains(err.Error(), "unframed PR-7 layout") {
		t.Fatalf("open of a PR-7 index: store %v, err %v; want a refusal naming the format", s, err)
	}
}

// TestFirstAppendTornIsNotMistakenForUnframed: a framed index whose very
// first append tore — however much of it landed — or failed its close is a
// fresh store with at most a hole, not a foreign format.
func TestFirstAppendTornIsNotMistakenForUnframed(t *testing.T) {
	h, _ := errbound.NewHasher(errbound.Float32, 1e-5)
	const chunk = 4 << 10
	data := synth.FieldF32(4096, 1)
	digests := hashChunks(t, h, data, chunk)
	rules := []faults.Rule{{Kind: faults.FailClose, Name: "cas/index"}}
	for _, keep := range []int{1, 3, 4, 15, 16, 40, 100} {
		rules = append(rules, faults.Rule{Kind: faults.TornWrite, Name: "cas/index", Keep: keep})
	}
	for _, rule := range rules {
		fsys, s := newStore(t)
		fsys.SetFaultHook(faults.New(1, rule))
		_, _, _, err := s.PutChunks(data, chunk, digests)
		fsys.SetFaultHook(nil)
		if err == nil {
			t.Fatalf("%s: the failed index append did not surface as an error", rule.Kind)
		}
		fsys.EvictAll()
		s2, _, err := Open(context.Background(), fsys)
		if err != nil {
			t.Fatalf("%s keep %d: %v", rule.Kind, rule.Keep, err)
		}
		if _, _, _, err := s2.PutChunks(data, chunk, digests); err != nil {
			t.Fatalf("%s keep %d: %v", rule.Kind, rule.Keep, err)
		}
		fsys.EvictAll()
		if s3, _, err := Open(context.Background(), fsys); err != nil || s3.Len() != len(digests) {
			t.Fatalf("%s keep %d: reopen: %v", rule.Kind, rule.Keep, err)
		}
	}
}

func TestScrubDetectsPackRot(t *testing.T) {
	fsys, s := newStore(t)
	h, _ := errbound.NewHasher(errbound.Float32, 1e-5)
	const chunk = 4 << 10
	data := synth.FieldF32(4096, 9)
	if _, _, _, err := s.PutChunks(data, chunk, hashChunks(t, h, data, chunk)); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(3, faults.Rule{Kind: faults.BitFlip, Name: "cas/pack", Count: 1})
	fsys.SetFaultHook(inj)
	fsys.EvictAll()
	_, err := s.Scrub(context.Background(), h.HashChunk)
	fsys.SetFaultHook(nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub on flipped pack byte: err=%v, want ErrCorrupt", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	fsys, s := newStore(t)
	h, _ := errbound.NewHasher(errbound.Float64, 1e-7)
	const chunk = 8 << 10
	data := synth.FieldF32(8192, 11) // bytes reinterpreted as f64 is fine for format tests
	digests := hashChunks(t, h, data, chunk)
	locs, _, _, err := s.PutChunks(data, chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		Epsilon:   1e-7,
		ChunkSize: chunk,
		Fields: []FieldManifest{{
			Name: "phi", DType: errbound.Float64, Count: int64(len(data) / 8),
			Digests: digests, Locs: locs,
		}},
	}
	if _, err := SaveManifest(fsys, "run/iter0000.rank000.ckpt", m); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := LoadManifest(context.Background(), fsys, "run/iter0000.rank000.ckpt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !SameSchema(m, got) {
		t.Fatal("round-tripped manifest schema differs")
	}
	for i := range digests {
		if got.Fields[0].Digests[i] != digests[i] || got.Fields[0].Locs[i] != locs[i] {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
	if got.TotalBytes() != m.TotalBytes() {
		t.Fatalf("total bytes %d vs %d", got.TotalBytes(), m.TotalBytes())
	}

	// Corrupt one byte: CRC must reject.
	inj := faults.New(4, faults.Rule{Kind: faults.BitFlip, Name: ".cman", Count: 1})
	fsys.SetFaultHook(inj)
	fsys.EvictAll()
	_, _, _, err = LoadManifest(context.Background(), fsys, "run/iter0000.rank000.ckpt", nil)
	fsys.SetFaultHook(nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest load: err=%v, want ErrCorrupt", err)
	}
}
