// Package ckpt implements the checkpoint capture substrate modelled on the
// VELOC library the paper uses (§3.3.1): typed, named checkpoint fields in
// a CRC-protected binary container, captured asynchronously through two
// storage tiers — a fast node-local tier written synchronously, flushed in
// the background to the PFS tier while the application continues.
//
// A checkpoint history is a set of files named
// <runID>/iter<NNNN>.rank<RRR>.ckpt on a store; the comparator pairs the
// histories of two runs file by file.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/errbound"
	"repro/internal/framelog"
	"repro/internal/pfs"
)

// Format constants.
const (
	formatMagic = "VLCK"
	formatVer   = 1
	// maxFields bounds header parsing against corrupt files.
	maxFields = 1 << 16
	// maxNameLen bounds name parsing against corrupt files.
	maxNameLen = 1 << 12
	// minFieldEntry is the smallest header entry of one field (a one-byte
	// name): what a declared field count is held against before it sizes
	// anything.
	minFieldEntry = 2 + 1 + 1 + 1 + 8 + 8 + 4
)

// ErrCorrupt is returned when a checkpoint file fails an integrity check.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// FieldSpec describes one captured variable.
type FieldSpec struct {
	// Name is the variable name ("x", "vx", "phi", ...).
	Name string
	// DType is the element type.
	DType errbound.DType
	// Count is the number of elements.
	Count int64
}

// Bytes returns the field's raw size.
func (f FieldSpec) Bytes() int64 { return f.Count * int64(f.DType.Size()) }

// Meta identifies a checkpoint within a run's history.
type Meta struct {
	// RunID identifies the application run.
	RunID string
	// Iteration is the simulation step the checkpoint captures.
	Iteration int
	// Rank is the distributed process rank.
	Rank int
	// Fields lists the captured variables in file order.
	Fields []FieldSpec
}

// TotalBytes returns the summed raw size of all fields.
func (m Meta) TotalBytes() int64 {
	var t int64
	for _, f := range m.Fields {
		t += f.Bytes()
	}
	return t
}

// Name returns the canonical history file name for a checkpoint.
func Name(runID string, iteration, rank int) string {
	return fmt.Sprintf("%s/iter%04d.rank%03d.ckpt", runID, iteration, rank)
}

var nameRe = regexp.MustCompile(`^(.+)/iter(\d{4})\.rank(\d{3})\.ckpt$`)

// ParseName inverts Name. ok is false for non-checkpoint paths.
func ParseName(name string) (runID string, iteration, rank int, ok bool) {
	m := nameRe.FindStringSubmatch(name)
	if m == nil {
		return "", 0, 0, false
	}
	it, err1 := strconv.Atoi(m[2])
	rk, err2 := strconv.Atoi(m[3])
	if err1 != nil || err2 != nil {
		return "", 0, 0, false
	}
	return m[1], it, rk, true
}

// History lists a run's checkpoint file names on a store, sorted by
// iteration then rank.
func History(store *pfs.Store, runID string) ([]string, error) {
	names, err := store.List(runID + "/")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if _, _, _, ok := ParseName(n); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		_, ii, ri, _ := ParseName(out[i])
		_, ij, rj, _ := ParseName(out[j])
		if ii != ij {
			return ii < ij
		}
		return ri < rj
	})
	return out, nil
}

// CheckFields is the one shape check of the write side: what a container
// cannot hold — no fields, a buffer count or length that disagrees with the
// specs, an unknown dtype, a non-positive count, a name the header cannot
// carry — is refused here by every capture path (Encode, compare.Build, the
// differential capturer) before a byte is hashed or written.
func CheckFields(fields []FieldSpec, data [][]byte) error {
	if len(data) != len(fields) {
		return fmt.Errorf("ckpt: %d data buffers for %d fields", len(data), len(fields))
	}
	if len(fields) == 0 {
		return errors.New("ckpt: checkpoint must have at least one field")
	}
	for i, f := range fields {
		if f.DType.Size() == 0 {
			return fmt.Errorf("ckpt: field %q has unsupported dtype", f.Name)
		}
		if f.Count <= 0 {
			return fmt.Errorf("ckpt: field %q has non-positive count %d", f.Name, f.Count)
		}
		if len(f.Name) == 0 || len(f.Name) > maxNameLen {
			return fmt.Errorf("ckpt: field %d name length %d out of range", i, len(f.Name))
		}
		if int64(len(data[i])) != f.Bytes() {
			return fmt.Errorf("ckpt: field %q has %d bytes, want %d", f.Name, len(data[i]), f.Bytes())
		}
	}
	return nil
}

// Encode serializes a checkpoint to w. data[i] must hold exactly
// meta.Fields[i].Bytes() raw little-endian bytes.
//
// Layout (little-endian):
//
//	magic     [4]byte "VLCK"
//	version   u16
//	reserved  u16
//	runID     u16 len + bytes
//	iteration u32
//	rank      u32
//	nfields   u32
//	fields    n × { name u16 len + bytes, dtype u8, pad u8,
//	                count u64, offset u64, crc32 u32 }
//	headerCRC u32 (over everything above)
//	data      concatenated field bytes
func Encode(w io.Writer, meta Meta, data [][]byte) (int64, error) {
	if err := CheckFields(meta.Fields, data); err != nil {
		return 0, err
	}
	if len(meta.RunID) == 0 || len(meta.RunID) > maxNameLen {
		return 0, fmt.Errorf("ckpt: run ID length %d out of range", len(meta.RunID))
	}
	crcs := fieldCRCs(data)

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
		hdr = binary.LittleEndian.AppendUint32(hdr, crcs[i])
		off += f.Bytes()
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))

	var written int64
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("ckpt: write header: %w", err)
	}
	for i := range data {
		n, err := w.Write(data[i])
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("ckpt: write field %q: %w", meta.Fields[i].Name, err)
		}
	}
	return written, nil
}

// fieldCRCs checksums every field. The header carries the CRCs and is
// written first, so nothing reaches storage until the last one is known:
// the fields are independent, and min(fields, GOMAXPROCS) goroutines (the
// caller is one of them) pull indices from a counter until none is left.
func fieldCRCs(data [][]byte) []uint32 {
	crcs := make([]uint32, len(data))
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(data)); i = next.Add(1) - 1 {
			crcs[i] = crc32.ChecksumIEEE(data[i])
		}
	}
	var wg sync.WaitGroup
	for g := min(len(data), runtime.GOMAXPROCS(0)); g > 1; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return crcs
}

// header is the parsed prefix of a checkpoint file.
type header struct {
	meta      Meta
	offsets   []int64 // per-field offset within the data section
	crcs      []uint32
	dataStart int64
}

// parseHeader decodes a header from buf, returning the parsed header and
// the number of header bytes consumed; needMore is set when buf is too
// short (callers re-read with a larger prefix).
func parseHeader(buf []byte) (h header, consumed int64, needMore bool, err error) {
	r := framelog.NewCursor(buf)
	// A short read leaves zeros, and every value judged here is invalid at
	// zero: a verdict on a value that was never read is a request for more
	// header, not a corrupt file.
	corrupt := func(format string, args ...any) (header, int64, bool, error) {
		if r.Err() != nil {
			return h, 0, true, nil
		}
		return h, 0, false, fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	if magic := r.Bytes(4); string(magic) != formatMagic {
		return corrupt("bad magic %q", magic)
	}
	ver := r.U16()
	r.U16() // reserved
	if ver != formatVer {
		return corrupt("unsupported version %d", ver)
	}
	idLen := int(r.U16())
	if idLen == 0 || idLen > maxNameLen {
		return corrupt("run ID length %d", idLen)
	}
	h.meta.RunID = string(r.Bytes(idLen))
	h.meta.Iteration = int(r.U32())
	h.meta.Rank = int(r.U32())
	nf := int(r.U32())
	if nf == 0 || nf > maxFields {
		return corrupt("field count %d", nf)
	}
	if nf > len(r.Rest())/minFieldEntry {
		return h, 0, true, nil
	}
	h.meta.Fields = make([]FieldSpec, 0, nf)
	h.offsets = make([]int64, 0, nf)
	h.crcs = make([]uint32, 0, nf)
	for i := 0; i < nf; i++ {
		nameLen := int(r.U16())
		if nameLen == 0 || nameLen > maxNameLen {
			return corrupt("field %d name length %d", i, nameLen)
		}
		name := string(r.Bytes(nameLen))
		dtype := errbound.DType(r.U8())
		r.U8() // pad
		count := int64(r.U64())
		off := int64(r.U64())
		if dtype.Size() == 0 || count <= 0 || off < 0 {
			return corrupt("field %q implausible (dtype=%d count=%d off=%d)", name, dtype, count, off)
		}
		h.meta.Fields = append(h.meta.Fields, FieldSpec{Name: name, DType: dtype, Count: count})
		h.offsets = append(h.offsets, off)
		h.crcs = append(h.crcs, r.U32())
	}
	bodyLen := r.Off()
	if gotCRC := r.U32(); r.Err() != nil || crc32.ChecksumIEEE(buf[:bodyLen]) != gotCRC {
		return corrupt("header crc mismatch")
	}
	h.dataStart = int64(r.Off())
	return h, h.dataStart, false, nil
}
