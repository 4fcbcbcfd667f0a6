package framelog

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/murmur3"
)

func TestCursorReadsTheLayout(t *testing.T) {
	b := []byte{0x7f}
	b = binary.LittleEndian.AppendUint16(b, 0xbeef)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 0x0123456789abcdef)
	b = binary.LittleEndian.AppendUint32(b, 5)
	b = append(b, "hello"...)
	digest := murmur3.Digest{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	b = append(b, digest[:]...)
	b = append(b, "tail"...)

	c := NewCursor(b)
	if v := c.U8(); v != 0x7f {
		t.Errorf("U8 = %#x", v)
	}
	if v := c.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := c.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := c.U64(); v != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", v)
	}
	if v := c.Str32(); v != "hello" {
		t.Errorf("Str32 = %q", v)
	}
	if v := c.Digest(); v != digest {
		t.Errorf("Digest = %x", v)
	}
	if c.Off() != len(b)-4 || string(c.Rest()) != "tail" {
		t.Errorf("Off %d, Rest %q", c.Off(), c.Rest())
	}
	if err := c.Done(); err == nil || errors.Is(err, ErrShort) {
		t.Errorf("Done with 4 bytes left: %v, want a trailing-bytes error", err)
	}
	if got := c.Bytes(4); string(got) != "tail" || cap(got) != 4 {
		t.Errorf("Bytes = %q cap %d, want a capped sub-slice", got, cap(got))
	}
	if err := c.Done(); err != nil {
		t.Errorf("Done on a consumed buffer: %v", err)
	}
}

// TestCursorShortReadIsSticky: the first read past the end consumes
// nothing, returns zero and poisons every later read, including ones that
// would have fit.
func TestCursorShortReadIsSticky(t *testing.T) {
	c := NewCursor([]byte{1, 2, 3, 4, 5, 6})
	if v := c.U16(); v != 0x0201 || c.Err() != nil {
		t.Fatalf("U16 = %#x, err %v", v, c.Err())
	}
	if v := c.U64(); v != 0 || c.Err() != ErrShort {
		t.Fatalf("short U64 = %#x, err %v", v, c.Err())
	}
	if c.Off() != 2 {
		t.Fatalf("short read consumed: Off %d", c.Off())
	}
	if v := c.U8(); v != 0 {
		t.Fatalf("U8 after a short read = %#x, want 0", v)
	}
	if b := c.Bytes(0); b != nil {
		t.Fatalf("Bytes(0) after a short read = %v", b)
	}
	if c.Digest() != (murmur3.Digest{}) || c.Str32() != "" {
		t.Fatal("reads after a short read returned data")
	}
	if err := c.Done(); err != ErrShort {
		t.Fatalf("Done = %v, want ErrShort", err)
	}
	if c := NewCursor([]byte{1}); c.Bytes(-1) != nil || c.Err() != ErrShort {
		t.Fatal("negative length accepted")
	}
}

// TestCursorLengthPrefixNeverAllocates: a length larger than what remains
// is refused before anything is sized by it.
func TestCursorLengthPrefixNeverAllocates(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, 0xffffffff)
	huge = append(huge, "only these bytes"...)
	allocs := testing.AllocsPerRun(100, func() {
		c := Cursor{b: huge}
		if s := c.Str32(); s != "" || c.Err() != ErrShort {
			t.Fatalf("Str32 = %q, err %v", s, c.Err())
		}
		c = Cursor{b: huge}
		if b := c.Bytes(int(c.U32())); b != nil {
			t.Fatalf("Bytes returned %d bytes", len(b))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations reading a forged length", allocs)
	}
}
