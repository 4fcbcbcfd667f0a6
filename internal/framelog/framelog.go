// Package framelog is the one place a stored or received format is read
// back. It holds two things: the frame of the append-only logs (the job
// journal in internal/wal, the CAS index in internal/cas) with its one
// writer and its one scanner, and Cursor, the bounds-checked reader every
// decoder in the tree reads through.
//
// Frame layout, little-endian:
//
//	magic u32 | stored offset u64 | payload len u32 | payload | crc32 u32
//
// The CRC (IEEE) covers offset, length and payload. The stored offset
// must equal the frame's own position in the file: pfs has no truncate,
// so a crashed append leaves its torn prefix in place and the next append
// continues after it, and magic plus a matching stored offset is the
// anchor Replay resynchronizes on. Payload bytes that happen to contain
// the magic sit at the wrong offset and are never taken for a frame.
//
// The writer and the scanner share one bound: Append refuses, before it
// writes, any payload Replay would refuse to read.
package framelog

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"

	"repro/internal/pfs"
)

const (
	// HeaderSize is the bytes of a frame before its payload.
	HeaderSize = 4 + 8 + 4
	// MaxPayload bounds a payload on both sides: Append refuses a larger
	// one, and Replay takes a larger length field for damage, so a corrupt
	// length never sizes anything.
	MaxPayload = 1 << 20
)

// ErrTooLarge is Append's refusal of a payload over MaxPayload. Nothing
// was written.
var ErrTooLarge = errors.New("framelog: payload over the replay bound")

// Log is the append side of one framed log on a store. Not safe for
// concurrent use: the owning journal or store serializes appends.
type Log struct {
	Store *pfs.Store
	Name  string
	Magic uint32
	// Size is the end of the file, where the next frame goes: what Read
	// found, plus every append since — the torn prefix of a failed one
	// included, because it stays in the file.
	Size int64

	buf []byte // grow-only frame buffer, reused across appends
}

// Read returns the log's bytes for Replay (an absent log is empty) and
// positions Size at their end.
func (l *Log) Read(ctx context.Context) ([]byte, pfs.Cost, error) {
	raw, cost, err := l.Store.ReadFileFull(ctx, l.Name, 4<<20, nil)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, cost, err
	}
	l.Size = int64(len(raw))
	return raw, cost, nil
}

// Append frames payload at the end of the log in one open/write/close and
// returns the write's cost. A failed or short write still advances Size by
// the bytes that reached the file, so the next frame's stored offset is
// where it really lands and replay sees the torn bytes as one hole.
func (l *Log) Append(payload []byte) (pfs.Cost, error) {
	if len(payload) > MaxPayload {
		return pfs.Cost{}, fmt.Errorf("%w: %d bytes, max %d", ErrTooLarge, len(payload), MaxPayload)
	}
	b := binary.LittleEndian.AppendUint32(l.buf[:0], l.Magic)
	b = binary.LittleEndian.AppendUint64(b, uint64(l.Size))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:]))
	l.buf = b[:0]

	w, err := l.Store.Append(l.Name)
	if err != nil {
		return pfs.Cost{}, err
	}
	n, werr := w.Write(b)
	cost := w.Cost()
	cerr := w.Close()
	l.Size += int64(n)
	switch {
	case werr != nil:
		return cost, werr
	case cerr != nil:
		return cost, cerr
	case n != len(b):
		return cost, fmt.Errorf("framelog: short append to %s: %d of %d bytes", l.Name, n, len(b))
	}
	return cost, nil
}

// Damage is what Replay skipped.
type Damage struct {
	// Holes counts damaged regions with a valid frame after them: torn
	// appends that later appends wrote past.
	Holes int
	// TornTailBytes counts the bytes after the last valid frame: an
	// append torn by a crash or, indistinguishably, a damaged final frame.
	TornTailBytes int64
	// BadCRC lists the offsets of complete frames whose CRC fails: header
	// at its own stored offset, extent inside the log, no other frame
	// header inside that extent — not a torn frame whose space later
	// appends filled, but bytes that were once a whole frame. Each also
	// counts in the hole or torn tail it lies in.
	BadCRC []int64
}

// Replay walks raw and calls fn with each valid frame's offset and
// payload (a sub-slice of raw), in file order. Anything that is not a
// valid frame is skipped by scanning for the next magic whose stored
// offset matches its position, and accounted in Damage. An error from fn
// stops the walk and is returned as it is.
func Replay(raw []byte, magic uint32, fn func(off int64, payload []byte) error) (Damage, error) {
	var d Damage
	damaged := -1 // start of the damaged region being skipped, -1 if none
	for off := 0; off < len(raw); {
		payload, end, ok := frameAt(raw, off, magic)
		if ok {
			if err := fn(int64(off), payload); err != nil {
				return d, err
			}
			if damaged >= 0 {
				d.Holes++
				damaged = -1
			}
			off = end
			continue
		}
		if damaged < 0 {
			damaged = off
		}
		next := nextCandidate(raw, off+1, magic)
		if end > 0 && next >= end {
			d.BadCRC = append(d.BadCRC, int64(off))
		}
		off = next
	}
	if damaged >= 0 {
		d.TornTailBytes = int64(len(raw) - damaged)
	}
	return d, nil
}

// frameAt examines the frame that would start at off. end is 0 unless a
// header with this magic and stored offset off declares an in-bound
// length whose frame fits inside raw; ok also requires the CRC to hold.
func frameAt(raw []byte, off int, magic uint32) (payload []byte, end int, ok bool) {
	if !headerAt(raw, off, magic) {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(raw[off+12:])
	if n > MaxPayload || off+HeaderSize+int(n)+4 > len(raw) {
		return nil, 0, false
	}
	crcAt := off + HeaderSize + int(n)
	ok = crc32.ChecksumIEEE(raw[off+4:crcAt]) == binary.LittleEndian.Uint32(raw[crcAt:])
	return raw[off+HeaderSize : crcAt], crcAt + 4, ok
}

// headerAt reports whether a whole frame header with this magic and a
// stored offset equal to off starts at off.
func headerAt(raw []byte, off int, magic uint32) bool {
	return off+HeaderSize <= len(raw) &&
		binary.LittleEndian.Uint32(raw[off:]) == magic &&
		binary.LittleEndian.Uint64(raw[off+4:]) == uint64(off)
}

// nextCandidate returns the first offset at or after from where a frame
// could start, or len(raw).
func nextCandidate(raw []byte, from int, magic uint32) int {
	for i := from; i+HeaderSize <= len(raw); i++ {
		if headerAt(raw, i, magic) {
			return i
		}
	}
	return len(raw)
}
