package framelog

import (
	"errors"
	"fmt"

	"repro/internal/murmur3"
)

// ErrShort is a Cursor's sticky error: a read asked for more bytes than
// were left. Each decoder maps it to its own class (corrupt, truncated,
// need-more-header, io.ErrUnexpectedEOF).
var ErrShort = errors.New("framelog: read past the end of the buffer")

// Cursor is a bounds-checked little-endian reader over one buffer. A read
// past the end returns zero, consumes nothing and sets ErrShort for good,
// so a decoder reads a whole layout and checks once. Nothing a Cursor
// returns is allocated from a length it has not held against the bytes
// that are there: Bytes is a sub-slice, and a string is built only after
// its bytes were found.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Bytes returns the next n bytes as a sub-slice of the buffer.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b)-c.off {
		c.err = ErrShort
		return nil
	}
	out := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return out
}

// U8, U16, U32 and U64 read one little-endian integer of that width.
func (c *Cursor) U8() uint8   { return uint8(c.le(1)) }
func (c *Cursor) U16() uint16 { return uint16(c.le(2)) }
func (c *Cursor) U32() uint32 { return uint32(c.le(4)) }
func (c *Cursor) U64() uint64 { return c.le(8) }

func (c *Cursor) le(n int) (v uint64) {
	for i, x := range c.Bytes(n) {
		v |= uint64(x) << (8 * i)
	}
	return v
}

// Str32 reads a u32 length and that many bytes as a string.
func (c *Cursor) Str32() string { return string(c.Bytes(int(c.U32()))) }

// Digest reads one Murmur3 digest.
func (c *Cursor) Digest() murmur3.Digest {
	var d murmur3.Digest
	copy(d[:], c.Bytes(murmur3.DigestSize))
	return d
}

// Off returns the bytes consumed so far.
func (c *Cursor) Off() int { return c.off }

// Rest returns the unread bytes without consuming them.
func (c *Cursor) Rest() []byte { return c.b[c.off:] }

// Err returns ErrShort once any read ran past the end, else nil.
func (c *Cursor) Err() error { return c.err }

// Done is Err for a buffer that must have been consumed whole: bytes left
// over are an error too.
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if n := len(c.b) - c.off; n != 0 {
		return fmt.Errorf("framelog: %d trailing bytes", n)
	}
	return nil
}
