package compare

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/synth"
)

// TestParentMetadataDecodesAndReencodes: a .mrkl the parent commit wrote
// (before DecodeMetadata and merkle.Decode moved onto framelog.Cursor)
// decodes to the same container and serializes back to the same bytes.
func TestParentMetadataDecodesAndReencodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.ckpt.mrkl")
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMetadata(bytes.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	if m.Epsilon != 1e-5 || len(m.Fields) != 2 || m.Fields[0].Name != "x" || m.Fields[1].Name != "phi" ||
		m.Fields[1].DType != errbound.Float32 || m.Fields[1].Tree.NumChunks() != 4 ||
		m.Fields[1].Tree.ChunkSize() != 256 || m.Fields[1].Tree.DataLen() != 1024 {
		t.Fatalf("decoded metadata: %+v", m)
	}
	// The roots are what the same inputs hash to today.
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 256},
		{Name: "phi", DType: errbound.Float32, Count: 256},
	}
	built, _, err := Build(fields, [][]byte{synth.FieldF32(256, 1), synth.FieldF32(256, 2)},
		Options{Epsilon: 1e-5, ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if built.CombinedRoot() != m.CombinedRoot() {
		t.Fatal("the parent's roots are not the roots of the same data")
	}
	var again bytes.Buffer
	if _, err := m.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("re-serialized metadata differs from the parent's bytes")
	}
}

// FuzzDecodeMetadata drives the container decoder and, through it,
// merkle.Decode: no panic; the field slice is never sized past what the
// bytes could hold; every refusal is merkle.ErrCorrupt or
// io.ErrUnexpectedEOF; and whatever decodes is exactly the serialization
// of what it decoded to, so no mutation of a tree's CRC-covered bytes is
// accepted in place of the original.
func FuzzDecodeMetadata(f *testing.F) {
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 96},
		{Name: "rho", DType: errbound.Float64, Count: 8},
	}
	m, _, err := Build(fields, [][]byte{synth.FieldF32(96, 1), f64field(8, 2)}, Options{Epsilon: 1e-5, ChunkSize: 128})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-9])
	f.Add([]byte(metaMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := bytes.Clone(data)
		m, err := DecodeMetadata(data)
		if err != nil {
			if !errors.Is(err, merkle.ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("refusal outside the decoder's error classes: %v", err)
			}
			return
		}
		if cap(m.Fields)*minFieldBytes > len(data) {
			t.Fatalf("%d field slots sized from %d bytes", cap(m.Fields), len(data))
		}
		var again bytes.Buffer
		if _, err := m.WriteTo(&again); err != nil {
			t.Fatalf("decoded metadata does not serialize: %v", err)
		}
		if int64(again.Len()) != m.Bytes() || again.Len() > len(pristine) || !bytes.Equal(again.Bytes(), pristine[:again.Len()]) {
			t.Fatalf("accepted container is not the serialization of what it decoded to")
		}
	})
}
