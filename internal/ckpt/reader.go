package ckpt

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/pfs"
)

// Reader reads a checkpoint file on a store: whole fields (ReadField,
// VerifyField), a field's extent where it lies (ViewFieldAt, the capture's
// read-back), and the field offsets (FieldFileOffset) by which stage 2
// prices and lands candidate chunks on File itself.
type Reader struct {
	f   *pfs.File
	hdr header
}

// OpenReader opens and parses a checkpoint file, returning the reader and
// the storage cost of reading the header.
func OpenReader(store *pfs.Store, name string) (*Reader, pfs.Cost, error) {
	f, err := store.Open(name)
	if err != nil {
		return nil, pfs.Cost{}, err
	}
	r, cost, err := NewReader(f)
	if err != nil {
		_ = f.Close() // the header parse error takes precedence
		return nil, cost, err
	}
	return r, cost, nil
}

// NewReader parses a checkpoint header from an open file. The reader owns
// the file and closes it on Close.
//
// Headers are small: a growing prefix is priced and lands (pfs.File.Land)
// until it parses, each attempt parsed under pfs.Guard and checked with
// pfs.File.Holds. Parsing copies what the header names, so the Reader
// aliases no view. A file cut under the prefix is a torn capture,
// ErrCorrupt wrapping io.ErrUnexpectedEOF.
func NewReader(f *pfs.File) (*Reader, pfs.Cost, error) {
	var total pfs.Cost
	for size := int64(4096); ; size *= 4 {
		size = min(size, f.Size())
		cost, err := f.Price(0, int(size))
		total.Add(cost)
		if err != nil {
			return nil, total, err
		}
		prefix, err := f.Land(0, int(size))
		if err != nil {
			return nil, total, err
		}
		var h header
		var needMore bool
		faulted := pfs.Guard(func() { h, _, needMore, err = parseHeader(prefix) }, f)
		if cut := f.Holds(0, len(prefix)); cut != nil || faulted >= 0 {
			return nil, total, fmt.Errorf("%w: %s truncated: %w", ErrCorrupt, f.Name(), cmp.Or(cut, io.ErrUnexpectedEOF))
		}
		if err != nil {
			return nil, total, fmt.Errorf("parse %s: %w", f.Name(), err)
		}
		if !needMore {
			// A header is a promise of data: a file that ends before a
			// field's extent is a torn capture, refused here so no reader
			// — stage 2's scattered reads included — starts on it.
			for i, fs := range h.meta.Fields {
				if fb := fs.Bytes(); fb < 0 || h.offsets[i] > f.Size()-h.dataStart-fb {
					return nil, total, fmt.Errorf("%w: %s truncated: %d bytes cannot hold field %q",
						ErrCorrupt, f.Name(), f.Size(), fs.Name)
				}
			}
			return &Reader{f: f, hdr: h}, total, nil
		}
		if size == f.Size() {
			return nil, total, fmt.Errorf("%w: truncated header in %s", ErrCorrupt, f.Name())
		}
	}
}

// Meta returns the checkpoint metadata.
func (r *Reader) Meta() Meta { return r.hdr.meta }

// NumFields returns the number of fields.
func (r *Reader) NumFields() int { return len(r.hdr.meta.Fields) }

// Field returns the spec of field i.
func (r *Reader) Field(i int) FieldSpec { return r.hdr.meta.Fields[i] }

// FieldIndex returns the index of the named field, or -1.
func (r *Reader) FieldIndex(name string) int {
	for i, f := range r.hdr.meta.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldFileOffset returns the absolute file offset of field i's data, the
// anchor for scattered chunk reads.
func (r *Reader) FieldFileOffset(i int) int64 {
	return r.hdr.dataStart + r.hdr.offsets[i]
}

// File returns the underlying pfs file (for backends issuing scattered
// reads directly).
func (r *Reader) File() *pfs.File { return r.f }

// ReadFieldAt reads len(p) bytes of field i starting at byte offset off
// within the field (fewer where the field ends first). The header promised
// the whole extent, so a read the file ends under is a torn capture: it is
// ErrCorrupt, never a short count the caller could mistake for data.
func (r *Reader) ReadFieldAt(i int, p []byte, off int64) (int, pfs.Cost, error) {
	fb := r.hdr.meta.Fields[i].Bytes()
	if off < 0 || off >= fb {
		return 0, pfs.Cost{}, fmt.Errorf("ckpt: offset %d outside field %q (%d bytes)",
			off, r.hdr.meta.Fields[i].Name, fb)
	}
	want := int64(len(p))
	if off+want > fb {
		want = fb - off
	}
	n, cost, err := r.f.ReadAt(p[:want], r.FieldFileOffset(i)+off)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, cost, err
	}
	if int64(n) < want {
		return n, cost, fmt.Errorf("%w: %s truncated: field %q has %d of %d bytes at offset %d",
			ErrCorrupt, r.f.Name(), r.hdr.meta.Fields[i].Name, n, want, off)
	}
	return n, cost, nil
}

// ReadBlock is the piece a whole-field read moves at a time: ReadField
// reads on this grid, ViewFieldAt prices on it, and the capture's leaf loop
// cuts its blocks to it.
const ReadBlock = 1 << 20

// ViewFieldAt hands fn the n bytes of field i at off where they lie and
// returns what reading them cost. The extent is priced in ReadBlock pieces
// from off, as ReadFieldAt reads it, then lands with one pfs.File.Land: a
// view of the file's mapping or, with a flip pending or no mapping, a copy
// of its own. fn must not keep the bytes. It runs under pfs.Guard, and a
// file cut under the view — a fault fn met, or the size check after it
// (pfs.File.Holds) — is a torn capture, ErrCorrupt as in ReadFieldAt, that
// takes precedence over fn's error.
func (r *Reader) ViewFieldAt(i int, off int64, n int, fn func([]byte) error) (pfs.Cost, error) {
	fs := r.hdr.meta.Fields[i]
	if off < 0 || n < 0 || off > fs.Bytes()-int64(n) {
		return pfs.Cost{}, fmt.Errorf("ckpt: extent %d+%d outside field %q (%d bytes)", off, n, fs.Name, fs.Bytes())
	}
	at := r.FieldFileOffset(i) + off
	var total pfs.Cost
	for o := 0; o < n; o += ReadBlock {
		cost, err := r.f.Price(at+int64(o), min(ReadBlock, n-o))
		if total.Add(cost); err != nil {
			return total, err
		}
	}
	view, err := r.f.Land(at, n)
	faulted := -1
	if err == nil {
		faulted = pfs.Guard(func() { err = fn(view) }, r.f)
	}
	if cut := r.f.Holds(at, n); cut != nil || faulted >= 0 {
		return total, fmt.Errorf("%w: %s truncated: field %q at %d+%d: %w",
			ErrCorrupt, r.f.Name(), fs.Name, off, n, cmp.Or(cut, io.ErrUnexpectedEOF))
	}
	return total, err
}

// ReadField reads the entire field i in large sequential blocks.
func (r *Reader) ReadField(i int) ([]byte, pfs.Cost, error) {
	fb := r.hdr.meta.Fields[i].Bytes()
	data := make([]byte, fb)
	var total pfs.Cost
	for off := int64(0); off < fb; off += ReadBlock {
		end := off + ReadBlock
		if end > fb {
			end = fb
		}
		_, cost, err := r.ReadFieldAt(i, data[off:end], off)
		total.Add(cost)
		if err != nil {
			return nil, total, err
		}
	}
	return data, total, nil
}

// VerifyField reads field i and checks its CRC.
func (r *Reader) VerifyField(i int) (pfs.Cost, error) {
	data, cost, err := r.ReadField(i)
	if err != nil {
		return cost, err
	}
	if crc32.ChecksumIEEE(data) != r.hdr.crcs[i] {
		return cost, fmt.Errorf("%w: field %q crc mismatch", ErrCorrupt, r.hdr.meta.Fields[i].Name)
	}
	return cost, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// SameSchema reports whether two checkpoints have identical field layouts,
// the precondition for pairwise comparison.
func SameSchema(a, b Meta) bool {
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}
