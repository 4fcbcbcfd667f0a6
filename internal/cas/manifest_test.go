package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"

	"repro/internal/errbound"
	"repro/internal/murmur3"
)

// TestParentManifestDecodesAndReencodes: a .cman the parent commit wrote
// (before the decoder moved onto framelog.Cursor) decodes to the same
// manifest and encodes back to the same bytes.
func TestParentManifestDecodesAndReencodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.cman")
	if err != nil {
		t.Fatal(err)
	}
	m, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epsilon != 1e-5 || m.ChunkSize != 256 || len(m.Fields) != 2 ||
		m.Fields[0].Name != "x" || m.Fields[1].Name != "phi" || m.Fields[1].DType != errbound.Float32 ||
		m.Fields[1].Count != 256 || len(m.Fields[1].Digests) != 4 || m.Fields[1].Locs[3] != (Loc{Off: 1792, Len: 256}) {
		t.Fatalf("decoded manifest: %+v", m)
	}
	again, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("re-encoded manifest differs from the parent's bytes")
	}
}

// FuzzDecodeManifest: no panic; nothing sized by a count the bytes do not
// back; every failure is ErrCorrupt or the version refusal; and a blob
// that decodes is exactly the encoding of what it decoded to — so no
// mutation of a CRC-covered manifest is accepted as the original.
func FuzzDecodeManifest(f *testing.F) {
	good, err := (&Manifest{Epsilon: 1e-5, ChunkSize: 4096, Fields: []FieldManifest{
		{Name: "x", DType: errbound.Float32, Count: 2048,
			Digests: []murmur3.Digest{{1}, {2}}, Locs: []Loc{{0, 4096}, {4096, 4096}}},
		{Name: "", DType: errbound.Float64, Count: 1},
	}}).encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// As it is (the CRC gate), and sealed with a fresh CRC so that the
		// mutation reaches the parser behind the gate.
		checkDecode(t, raw)
		checkDecode(t, seal(raw))
	})
}

// seal appends body's CRC, making it a manifest as far as the CRC can tell.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

func checkDecode(t *testing.T, raw []byte) {
	m, err := decode(raw)
	if err != nil {
		if m != nil {
			t.Fatal("a manifest came back with an error")
		}
		return
	}
	entries := 0
	for i := range m.Fields {
		entries += len(m.Fields[i].Digests)
	}
	if len(m.Fields)*minManField+entries*entrySize > len(raw) {
		t.Fatalf("%d fields and %d entries decoded from %d bytes", len(m.Fields), entries, len(raw))
	}
	again, err := m.encode()
	if err != nil {
		t.Fatalf("decoded manifest does not encode: %v", err)
	}
	// The reserved u16 is the one field decode reads past.
	if !bytes.Equal(again[:6], raw[:6]) || !bytes.Equal(again[8:len(again)-4], raw[8:len(raw)-4]) {
		t.Fatalf("accepted blob is not the encoding of what it decoded to:\n got %x\nwant %x", raw, again)
	}
}

// TestDecodeManifestErrorClass: every refusal of a damaged manifest is
// ErrCorrupt, at every truncation and for a forged count behind a valid CRC.
func TestDecodeManifestErrorClass(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.cman")
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decode(raw[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: %v, want ErrCorrupt", cut, err)
		}
		if cut == len(raw)-4 {
			continue // sealing the whole body is the manifest itself
		}
		if _, err := decode(seal(raw[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("sealed prefix of %d bytes: %v, want ErrCorrupt", cut, err)
		}
	}
	forged := bytes.Clone(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(forged[4+2+2+8+4:], maxManFields) // field count
	forged = seal(forged)
	// maxManFields field slots would be megabytes; the refusal must come
	// before anything is sized by the count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decode(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged field count: %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("forged field count: %d bytes allocated refusing a %d-byte manifest", grew, len(forged))
	}
}
