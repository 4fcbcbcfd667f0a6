package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/errbound"
)

// TestQuickParserNeverPanics feeds arbitrary bytes to the header parser:
// it must classify every input as parsed, short, or corrupt — never panic
// and never claim success on garbage that fails the CRC.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		h, consumed, needMore, err := parseHeader(data)
		if err != nil {
			return true // rejected cleanly
		}
		if needMore {
			return true // wants a longer prefix
		}
		// Claimed success: the header must be internally consistent.
		return consumed > 0 && len(h.meta.Fields) > 0 && h.dataStart == consumed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickBitFlippedHeadersRejected flips random bits in valid encodings:
// the header CRC must catch every corruption in the header region.
func TestQuickBitFlippedHeadersRejected(t *testing.T) {
	meta := testMeta("rq", 3, 1, 32)
	good := encodeBytes(t, meta, testData(meta, 9))
	// Find the header length: parse once.
	_, hdrLen, _, err := parseHeader(good)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), good...)
		bit := rng.Intn(int(hdrLen) * 8)
		corrupted[bit/8] ^= 1 << (bit % 8)
		h, _, needMore, err := parseHeader(corrupted)
		if err != nil || needMore {
			continue // rejected or classified short: fine
		}
		// Parsed "successfully": only acceptable if the flip landed in a
		// spot that leaves all parsed state AND the CRC identical — which
		// cannot happen for a single bit flip inside the CRC'd region.
		t.Fatalf("trial %d: single bit flip at %d accepted (fields=%d)",
			trial, bit, len(h.meta.Fields))
	}
}

// TestEncodeDeterministic confirms identical inputs produce identical
// bytes (metadata files are diffable artifacts).
func TestEncodeDeterministic(t *testing.T) {
	meta := testMeta("det", 1, 0, 64)
	data := testData(meta, 3)
	if !bytes.Equal(encodeBytes(t, meta, data), encodeBytes(t, meta, data)) {
		t.Error("encoding is not deterministic")
	}
}

// TestParentCheckpointOpensAndReencodes: a .ckpt the parent commit wrote
// (before the header parser moved onto framelog.Cursor) opens to the same
// metadata, verifies field by field, and encodes back to the same bytes.
func TestParentCheckpointOpensAndReencodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	name := Name("golden", 7, 3)
	w, err := store.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := Meta{RunID: "golden", Iteration: 7, Rank: 3, Fields: []FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 256},
		{Name: "phi", DType: errbound.Float32, Count: 256},
	}}
	if got := r.Meta(); got.RunID != want.RunID || got.Iteration != 7 || got.Rank != 3 || !SameSchema(got, want) {
		t.Fatalf("meta %+v, want %+v", got, want)
	}
	data := make([][]byte, r.NumFields())
	for i := range data {
		if _, err := r.VerifyField(i); err != nil {
			t.Fatal(err)
		}
		if data[i], _, err = r.ReadField(i); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encodeBytes(t, r.Meta(), data), raw) {
		t.Fatal("re-encoded checkpoint differs from the parent's bytes")
	}
}

// TestTruncatedContainerIsCorrupt: a container shorter than its header
// promises — what a torn capture leaves behind — is ErrCorrupt wherever it
// is met, never zeros handed out as field data. A file already short when
// it is opened is refused there; one cut under an open reader is caught by
// the read that runs off its end (ReadFieldAt, and through it ReadField
// and VerifyField).
func TestTruncatedContainerIsCorrupt(t *testing.T) {
	store := newStore(t)
	meta := Meta{RunID: "torn", Fields: []FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 64 << 10},
		{Name: "phi", DType: errbound.Float32, Count: 64 << 10},
	}}
	if _, err := WriteCheckpoint(store, meta, testData(meta, 5)); err != nil {
		t.Fatal(err)
	}
	name := Name(meta.RunID, 0, 0)
	path := filepath.Join(store.Root(), name)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := os.Truncate(path, st.Size()-100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.VerifyField(0); err != nil {
		t.Errorf("field 0 lies wholly before the cut: %v", err)
	}
	if _, _, err := r.ReadField(1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadField over the cut: %v, want ErrCorrupt", err)
	}
	if _, err := r.VerifyField(1); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("VerifyField over the cut: %v, want ErrCorrupt (truncated)", err)
	}
	buf := make([]byte, 4096)
	if n, _, err := r.ReadFieldAt(1, buf, meta.Fields[1].Bytes()-4096); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFieldAt past the cut: n=%d err=%v, want ErrCorrupt", n, err)
	}
	if _, _, err := OpenReader(store, name); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("opening the cut file: %v, want ErrCorrupt (truncated)", err)
	}
	if store.OpenHandles() != 1 {
		t.Errorf("%d handles open, want the first reader's one", store.OpenHandles())
	}
}

// TestHeaderCutUnderItsLanding: a .ckpt cut below its header between Open
// and the header's landing — at a page boundary, so the view faults past
// it, or inside a page, so the view reads zeros past it — is an error
// wrapping io.ErrUnexpectedEOF or ErrCorrupt: never a Reader, never a
// panic. The header spans three pages, so the growing prefix lands twice.
func TestHeaderCutUnderItsLanding(t *testing.T) {
	page := int64(os.Getpagesize())
	meta := Meta{RunID: "cut"}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("%03d%s", i, strings.Repeat("f", 200))
		meta.Fields = append(meta.Fields, FieldSpec{Name: name, DType: errbound.Float32, Count: 16})
	}
	h, _, _, err := parseHeader(encodeBytes(t, meta, testData(meta, 9)))
	if err != nil || h.dataStart <= 2*page {
		t.Fatalf("header of %d bytes (err %v), want more than two pages", h.dataStart, err)
	}
	store := newStore(t)
	name := Name(meta.RunID, 0, 0)
	path := filepath.Join(store.Root(), name)
	for _, cut := range []struct {
		name string
		at   int64
	}{
		{"whole-page/first", 0},
		{"whole-page/second", page},
		{"mid-page/first", 100},
		{"mid-page/second", page + page/2},
	} {
		t.Run(cut.name, func(t *testing.T) {
			if _, err := WriteCheckpoint(store, meta, testData(meta, 9)); err != nil {
				t.Fatal(err)
			}
			f, err := store.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := os.Truncate(path, cut.at); err != nil {
				t.Fatal(err)
			}
			r, _, err := NewReader(f)
			if r != nil || !(errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt)) {
				t.Fatalf("reader %v, error %v; want no reader and io.ErrUnexpectedEOF or ErrCorrupt", r, err)
			}
		})
	}
}

// FuzzParseHeader: no panic; no slice sized by a field count the buffer
// cannot back; a header is accepted only with its CRC intact; and short is
// a class of its own — every strict prefix of an accepted header asks for
// more, none is called corrupt. Each input is tried as it is and sealed
// with a fresh CRC, so mutations reach the parser behind the CRC.
func FuzzParseHeader(f *testing.F) {
	meta := testMeta("fz", 3, 1, 8)
	enc := encodeBytes(f, meta, testData(meta, 1))
	_, hdrLen, _, err := parseHeader(enc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc[:hdrLen])
	f.Add(enc[:hdrLen-4])
	f.Add([]byte(formatMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sealed := binary.LittleEndian.AppendUint32(bytes.Clone(raw), crc32.ChecksumIEEE(raw))
		for _, b := range [][]byte{raw, sealed} {
			h, consumed, needMore, err := parseHeader(b)
			if cap(h.meta.Fields)*minFieldEntry > len(b) {
				t.Fatalf("%d field slots sized from %d bytes", cap(h.meta.Fields), len(b))
			}
			if err != nil || needMore {
				if err != nil && needMore {
					t.Fatal("both corrupt and short")
				}
				continue
			}
			n := int(consumed)
			if n < 4 || n > len(b) || len(h.meta.Fields) == 0 || h.dataStart != consumed ||
				crc32.ChecksumIEEE(b[:n-4]) != binary.LittleEndian.Uint32(b[n-4:]) {
				t.Fatalf("accepted a header whose CRC does not hold (consumed %d of %d)", n, len(b))
			}
			for cut := 0; cut < n; cut++ {
				if _, _, needMore, err := parseHeader(b[:cut]); err != nil || !needMore {
					t.Fatalf("prefix %d of a %d-byte header: needMore=%v err=%v", cut, n, needMore, err)
				}
			}
		}
	})
}
