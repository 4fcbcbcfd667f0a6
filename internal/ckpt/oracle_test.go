package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/errbound"
	"repro/internal/pfs"
)

// oracleEncode is the header-first encoder Encode replaced, kept as the
// format's oracle: every field's CRC computed before a byte is written,
// the header written first, then the fields in order, each with one Write.
func oracleEncode(w io.Writer, meta Meta, data [][]byte) (int64, error) {
	if err := CheckFields(meta.Fields, data); err != nil {
		return 0, err
	}
	if len(meta.RunID) == 0 || len(meta.RunID) > maxNameLen {
		return 0, errors.New("run ID length out of range")
	}
	var hdr []byte
	hdr = append(hdr, formatMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, formatVer)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(meta.RunID)))
	hdr = append(hdr, meta.RunID...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(meta.Iteration))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(meta.Rank))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(meta.Fields)))
	var off int64
	for i, f := range meta.Fields {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(f.Name)))
		hdr = append(hdr, f.Name...)
		hdr = append(hdr, byte(f.DType), 0)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(f.Count))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(data[i]))
		off += f.Bytes()
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	var written int64
	for _, b := range append([][]byte{hdr}, data...) {
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// memFile is an in-memory file: WriteAt grows it as a file grows, with
// zeros in any gap, and Write appends.
type memFile struct{ b []byte }

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(m.b) {
		m.b = append(m.b, make([]byte, end-len(m.b))...)
	}
	return copy(m.b[off:], p), nil
}

func (m *memFile) Write(p []byte) (int, error) { return m.WriteAt(p, int64(len(m.b))) }

// encodeBytes is Encode into memory.
func encodeBytes(t testing.TB, meta Meta, data [][]byte) []byte {
	t.Helper()
	var m memFile
	n, err := Encode(&m, meta, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(m.b)) {
		t.Fatalf("Encode reported %d bytes written, the file holds %d", n, len(m.b))
	}
	return m.b
}

// randomData is meta's content: seeded random bytes of each field's size.
func randomData(meta Meta, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, len(meta.Fields))
	for i, f := range meta.Fields {
		data[i] = make([]byte, f.Bytes())
		rng.Read(data[i])
	}
	return data
}

// oracleMetas spans what the header can carry: one field and many, each
// dtype, the longest and non-ASCII names, the longest run ID, and the
// extremes of the iteration and rank words.
func oracleMetas() map[string]Meta {
	many := Meta{RunID: "many", Iteration: 12, Rank: 3}
	for i := 0; i < 300; i++ {
		dt := errbound.Float32
		if i%3 == 0 {
			dt = errbound.Float64
		}
		many.Fields = append(many.Fields, FieldSpec{Name: "f" + strings.Repeat("x", i%17), DType: dt, Count: int64(1 + i%29)})
	}
	return map[string]Meta{
		"one-field": {RunID: "r", Fields: []FieldSpec{{Name: "x", DType: errbound.Float32, Count: 1}}},
		"seven-f32": testMeta("hacc", 40, 7, 1000),
		"many":      many,
		"every-dtype": {RunID: "dt", Fields: []FieldSpec{
			{Name: "f32", DType: errbound.Float32, Count: 333},
			{Name: "f64", DType: errbound.Float64, Count: 333},
		}},
		"long-names": {RunID: "ln", Fields: []FieldSpec{
			{Name: strings.Repeat("n", maxNameLen), DType: errbound.Float64, Count: 5},
			{Name: strings.Repeat("m", maxNameLen-1), DType: errbound.Float32, Count: 7},
		}},
		"non-ascii": {RunID: "läuf-温度", Iteration: 1, Fields: []FieldSpec{
			{Name: "φ", DType: errbound.Float32, Count: 64},
			{Name: "温度", DType: errbound.Float64, Count: 64},
			{Name: "ρ·v²", DType: errbound.Float32, Count: 1},
		}},
		"longest-run-id": {RunID: strings.Repeat("R", maxNameLen), Iteration: 9999, Rank: 999,
			Fields: []FieldSpec{{Name: "x", DType: errbound.Float32, Count: 100}}},
		"word-extremes": {RunID: "w", Iteration: 1<<32 - 1, Rank: 1<<32 - 1,
			Fields: []FieldSpec{{Name: "x", DType: errbound.Float64, Count: 3}}},
		"large": {RunID: "big", Fields: []FieldSpec{
			{Name: "x", DType: errbound.Float32, Count: 1 << 18},
			{Name: "v", DType: errbound.Float64, Count: 1<<16 + 3},
		}},
	}
}

// TestEncodeMatchesOracle: Encode writes, byte for byte, the file the
// header-first encoder wrote, and reports its size.
func TestEncodeMatchesOracle(t *testing.T) {
	for name, meta := range oracleMetas() {
		t.Run(name, func(t *testing.T) {
			data := randomData(meta, int64(len(name)))
			var want bytes.Buffer
			if _, err := oracleEncode(&want, meta, data); err != nil {
				t.Fatal(err)
			}
			if got := encodeBytes(t, meta, data); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("encoded %d bytes, the oracle %d; first difference at %d",
					len(got), want.Len(), firstDiff(got, want.Bytes()))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzEncodeMatchesOracle: for any shape the fuzzer picks — field count,
// names, dtypes, counts, run ID, iteration and rank — Encode and the
// oracle agree on the bytes, or both refuse.
func FuzzEncodeMatchesOracle(f *testing.F) {
	f.Add("run", uint32(0), uint32(0), []byte{1, 4, 'x'}, int64(1))
	f.Add("läuf", uint32(1<<32-1), uint32(7), []byte{2, 200, 'p', 'h', 'i', 1, 3, 0xcf, 0x86}, int64(2))
	f.Add("", uint32(3), uint32(3), []byte{}, int64(3))
	f.Fuzz(func(t *testing.T, runID string, iter, rank uint32, shape []byte, seed int64) {
		// shape is a list of fields: dtype byte, count byte, name length
		// byte (mod 64), name bytes.
		meta := Meta{RunID: runID, Iteration: int(iter), Rank: int(rank)}
		for len(shape) >= 3 && len(meta.Fields) < 64 {
			n := min(int(shape[2]%64), len(shape)-3)
			meta.Fields = append(meta.Fields, FieldSpec{
				Name: string(shape[3 : 3+n]), DType: errbound.DType(shape[0] % 4), Count: int64(shape[1]),
			})
			shape = shape[3+n:]
		}
		data := randomData(meta, seed)
		var want bytes.Buffer
		_, werr := oracleEncode(&want, meta, data)
		var got memFile
		_, gerr := Encode(&got, meta, data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("oracle error %v, Encode error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got.b, want.Bytes()) {
			t.Fatalf("encoded %d bytes, the oracle %d; first difference at %d",
				len(got.b), want.Len(), firstDiff(got.b, want.Bytes()))
		}
	})
}

// TestWriteCheckpointCost: a checkpoint write costs one operation for the
// header and one per field, and the file's size in bytes.
func TestWriteCheckpointCost(t *testing.T) {
	for name, meta := range oracleMetas() {
		if len(meta.RunID) > 255 {
			continue // the run ID names a directory: past NAME_MAX
		}
		t.Run(name, func(t *testing.T) {
			store := newStore(t)
			cost, err := WriteCheckpoint(store, meta, randomData(meta, 5))
			if err != nil {
				t.Fatal(err)
			}
			f, err := store.Open(Name(meta.RunID, meta.Iteration, meta.Rank))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if want := (pfs.Cost{Ops: 1 + len(meta.Fields), Bytes: f.Size()}); cost != want {
				t.Fatalf("cost %+v, want %+v", cost, want)
			}
		})
	}
}
