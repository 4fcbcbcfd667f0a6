// Manifest format: the per-checkpoint leaf manifest a differential
// capture leaves next to where the full .ckpt container would have been.
// It records, for every field, the ε-quantized digest and pack extent of
// each chunk — everything the comparator needs to reconstruct the field
// (gather extents from the pack) or to prune it (digest equality), without
// the checkpoint bytes ever being rewritten.
package cas

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/errbound"
	"repro/internal/framelog"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// manifestMagic identifies the serialized manifest format ("RCMF" =
// repro CAS manifest format).
const manifestMagic = "RCMF"

const (
	manifestVersion = 1
	maxManFields    = 1 << 16
	maxManChunks    = 1 << 30
	minManField     = 2 + 1 + 8 + 4 // empty name, dtype, count, chunk count
)

// FieldManifest describes one field of a differentially captured
// checkpoint: Digests[i] and Locs[i] are the leaf digest and pack extent
// of chunk i.
type FieldManifest struct {
	Name    string
	DType   errbound.DType
	Count   int64 // element count
	Digests []murmur3.Digest
	Locs    []Loc
}

// Bytes returns the logical field size.
func (f *FieldManifest) Bytes() int64 { return f.Count * int64(f.DType.Size()) }

// Manifest is the leaf manifest of one differentially captured checkpoint.
type Manifest struct {
	// Epsilon and ChunkSize pin the digest parameters: digests from
	// manifests with different ε or chunking are never comparable.
	Epsilon   float64
	ChunkSize int
	Fields    []FieldManifest
}

// ManifestName returns the manifest path for a checkpoint name (the name
// ckpt.Meta.Name would give the full container), e.g.
// "runA/iter0004.rank000.ckpt" → "runA/iter0004.rank000.ckpt.cman".
func ManifestName(checkpointName string) string { return checkpointName + ".cman" }

// TotalBytes returns the logical checkpoint size the manifest describes.
func (m *Manifest) TotalBytes() int64 {
	var n int64
	for i := range m.Fields {
		n += m.Fields[i].Bytes()
	}
	return n
}

// FieldIndex returns the index of the named field, or -1.
func (m *Manifest) FieldIndex(name string) int {
	for i := range m.Fields {
		if m.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// SameSchema reports whether two manifests describe the same field layout
// and digest parameters (name, dtype, count, ε, chunk size) — the
// precondition for comparing or differencing their digests.
func SameSchema(a, b *Manifest) bool {
	// Digest parameters must match bitwise, not approximately.
	if a.Epsilon != b.Epsilon || a.ChunkSize != b.ChunkSize || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		fa, fb := &a.Fields[i], &b.Fields[i]
		if fa.Name != fb.Name || fa.DType != fb.DType || fa.Count != fb.Count {
			return false
		}
	}
	return true
}

// encode serializes the manifest: header, per-field sections, CRC tail.
func (m *Manifest) encode() ([]byte, error) {
	if len(m.Fields) == 0 || len(m.Fields) > maxManFields {
		return nil, fmt.Errorf("cas: manifest has %d fields (want 1..%d)", len(m.Fields), maxManFields)
	}
	size := 4 + 2 + 2 + 8 + 4 + 4
	for i := range m.Fields {
		f := &m.Fields[i]
		if len(f.Digests) != len(f.Locs) {
			return nil, fmt.Errorf("cas: field %q has %d digests but %d locs", f.Name, len(f.Digests), len(f.Locs))
		}
		if len(f.Digests) > maxManChunks {
			return nil, fmt.Errorf("cas: field %q has %d chunks (max %d)", f.Name, len(f.Digests), maxManChunks)
		}
		size += 2 + len(f.Name) + 1 + 8 + 4 + len(f.Digests)*entrySize
	}
	size += 4 // CRC
	buf := make([]byte, 0, size)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Epsilon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ChunkSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Fields)))
	for i := range m.Fields {
		f := &m.Fields[i]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.DType))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Count))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Digests)))
		for j := range f.Digests {
			buf = appendEntry(buf, f.Digests[j], f.Locs[j])
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// decode parses a serialized manifest, verifying magic and CRC. Every
// failure is ErrCorrupt: a manifest is read whole, so a short one is a
// damaged one. Counts are held against the bytes that are there before
// they size anything.
func decode(raw []byte) (*Manifest, error) {
	if len(raw) < 4+4 || string(raw[:4]) != manifestMagic {
		return nil, fmt.Errorf("%w: not a CAS manifest", ErrCorrupt)
	}
	body := raw[:len(raw)-4]
	if crc32.ChecksumIEEE(body) != framelog.NewCursor(raw[len(body):]).U32() {
		return nil, fmt.Errorf("%w: manifest CRC mismatch", ErrCorrupt)
	}
	c := framelog.NewCursor(body[4:])
	ver := c.U16()
	c.U16() // reserved
	m := &Manifest{
		Epsilon:   math.Float64frombits(c.U64()),
		ChunkSize: int(c.U32()),
	}
	nFields := int(c.U32())
	if c.Err() != nil {
		return nil, fmt.Errorf("%w: truncated manifest header", ErrCorrupt)
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("cas: unsupported manifest version %d", ver)
	}
	if nFields <= 0 || nFields > maxManFields || nFields > len(c.Rest())/minManField {
		return nil, fmt.Errorf("%w: manifest declares %d fields", ErrCorrupt, nFields)
	}
	m.Fields = make([]FieldManifest, nFields)
	for i := range m.Fields {
		f := &m.Fields[i]
		f.Name = string(c.Bytes(int(c.U16())))
		f.DType = errbound.DType(c.U8())
		f.Count = int64(c.U64())
		nChunks := int(c.U32())
		if c.Err() != nil {
			return nil, fmt.Errorf("%w: truncated manifest field header", ErrCorrupt)
		}
		if nChunks < 0 || nChunks > maxManChunks || nChunks > len(c.Rest())/entrySize {
			return nil, fmt.Errorf("%w: manifest field %q declares %d chunks", ErrCorrupt, f.Name, nChunks)
		}
		f.Digests = make([]murmur3.Digest, nChunks)
		f.Locs = make([]Loc, nChunks)
		for j := range f.Digests {
			f.Digests[j], f.Locs[j] = readEntry(c)
		}
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	return m, nil
}

// SaveManifest writes the manifest for a checkpoint name to the pfs store.
func SaveManifest(fsys *pfs.Store, checkpointName string, m *Manifest) (cost pfs.Cost, err error) {
	raw, err := m.encode()
	if err != nil {
		return pfs.Cost{}, err
	}
	w, err := fsys.Create(ManifestName(checkpointName))
	if err != nil {
		return pfs.Cost{}, err
	}
	// Partial cost on every path, mirroring ckpt.WriteCheckpoint.
	defer func() { cost = w.Cost() }()
	if _, werr := w.Write(raw); werr != nil {
		_ = w.Close()
		return cost, werr
	}
	return cost, w.Close()
}

// LoadManifest reads and verifies the manifest for a checkpoint name. The
// file is read into buf when buf holds it (pfs.Store.ReadFileFull) and the
// buffer it was read into — buf, or the larger one allocated in its place —
// comes back for the caller to reuse: decoding copies, so the manifest
// does not alias it.
func LoadManifest(ctx context.Context, fsys *pfs.Store, checkpointName string, buf []byte) (*Manifest, []byte, pfs.Cost, error) {
	raw, cost, err := fsys.ReadFileFull(ctx, ManifestName(checkpointName), 4<<20, buf)
	if err != nil {
		return nil, buf, cost, err
	}
	m, err := decode(raw)
	return m, raw, cost, err
}
