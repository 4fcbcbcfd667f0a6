// Package shard implements the scale-out tier of the comparison engine:
// one checkpoint-pair (or N-run group) comparison is split across M
// simulated workers by Merkle subtree. The coordinator runs stage 1 on
// metadata only, prunes equal subtrees, and cuts the divergent ones into
// work units; workers execute stage 2 — the planners' one pipeline, in
// windows sized to a bounded buffer budget — steal subtree batches from
// loaded peers when idle, and return per-subtree verdict summaries the
// coordinator folds hierarchically into the same Result/GroupReport the
// single-node path produces — bit-identical diffs, proven against
// CompareMerkle as the oracle.
//
// This file is the wire layer. Verdicts and done markers travel from the
// workers to the coordinator as binary frames composed on the internal/mpi
// parts codec (little-endian, length-prefixed, truncation-rejecting). Work
// units do not travel: a worker executes a unit from the member set the
// coordinator's stage 1 filled, so any peer can execute any stolen unit.
// Message structs are deliberately flat (no maps, no pointer graphs): the
// codec carries exactly the fields it names, and iteration-order
// nondeterminism in a wire message would break the bit-identity oracle.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/framelog"
	"repro/internal/mpi"
)

// Frame kinds. Every frame is one mpi parts payload whose first part is
// the header: magic "SHRD", version u16, kind u8.
const (
	frameMagic  = "SHRD"
	wireVersion = 2
	kindVerdict = 2
	kindDone    = 3
	headerLen   = len(frameMagic) + 3
)

// ErrTruncated is returned when a frame or one of its parts is shorter
// than its declared layout.
var ErrTruncated = errors.New("shard: truncated frame")

// VerdictMsg is one executed unit's verdict, folded hierarchically by the
// coordinator.
type VerdictMsg struct {
	// Seq is the unit's sequence number; Pair indexes the group's pair
	// list (0 for a pairwise comparison), Field the checkpoint schema.
	Seq   int64
	Pair  int64
	Field int64
	// Changed counts chunks that really contained an out-of-bound
	// difference; Unverified counts chunks no read rung or integrity
	// check could vouch for.
	Changed    int64
	Unverified int64
	// Diffs are the absolute element indices that exceeded ε, ascending.
	Diffs []int64
}

// DoneMsg closes a worker's verdict stream. Died marks a chaos death.
type DoneMsg struct {
	Worker int64
	Died   uint8
}

// header builds the frame header part.
func header(kind uint8) []byte {
	h := make([]byte, 0, headerLen)
	h = append(h, frameMagic...)
	h = binary.LittleEndian.AppendUint16(h, wireVersion)
	h = append(h, kind)
	return h
}

// checkHeader validates a frame header part and returns its kind.
func checkHeader(part []byte) (uint8, error) {
	c := framelog.NewCursor(part)
	magic, version, kind := c.Bytes(len(frameMagic)), c.U16(), c.U8()
	if c.Done() != nil {
		return 0, ErrTruncated
	}
	if string(magic) != frameMagic {
		return 0, fmt.Errorf("shard: bad frame magic %q", magic)
	}
	if version != wireVersion {
		return 0, fmt.Errorf("shard: unsupported wire version %d", version)
	}
	return kind, nil
}

// FrameKind sniffs a frame's kind without decoding the body.
func FrameKind(frame []byte) (uint8, error) {
	parts, err := mpi.DecodeParts(frame)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if len(parts) < 1 {
		return 0, ErrTruncated
	}
	return checkHeader(parts[0])
}

// partDone closes the decode of one frame part: a short part is
// ErrTruncated, and leftover bytes are a framing error too (a frame that
// decodes but carries trailing garbage is corrupt).
func partDone(c *framelog.Cursor) error {
	err := c.Done()
	if errors.Is(err, framelog.ErrShort) {
		return ErrTruncated
	}
	if err != nil {
		return fmt.Errorf("shard: frame part: %w", err)
	}
	return nil
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// EncodeVerdict serializes a verdict as one frame.
func EncodeVerdict(v *VerdictMsg) []byte {
	fixed := make([]byte, 0, 5*8)
	for _, x := range []int64{v.Seq, v.Pair, v.Field, v.Changed, v.Unverified} {
		fixed = appendI64(fixed, x)
	}
	diffs := make([]byte, 0, len(v.Diffs)*8)
	for _, d := range v.Diffs {
		diffs = appendI64(diffs, d)
	}
	return mpi.EncodeParts([][]byte{header(kindVerdict), fixed, diffs})
}

// DecodeVerdict inverts EncodeVerdict.
func DecodeVerdict(frame []byte) (*VerdictMsg, error) {
	parts, err := mpi.DecodeParts(frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("shard: verdict frame has %d parts, want 3", len(parts))
	}
	kind, err := checkHeader(parts[0])
	if err != nil {
		return nil, err
	}
	if kind != kindVerdict {
		return nil, fmt.Errorf("shard: frame kind %d is not a verdict", kind)
	}
	c := framelog.NewCursor(parts[1])
	v := &VerdictMsg{
		Seq: int64(c.U64()), Pair: int64(c.U64()), Field: int64(c.U64()),
		Changed: int64(c.U64()), Unverified: int64(c.U64()),
	}
	if err := partDone(c); err != nil {
		return nil, err
	}
	if len(parts[2])%8 != 0 {
		return nil, ErrTruncated
	}
	v.Diffs = make([]int64, len(parts[2])/8)
	c = framelog.NewCursor(parts[2])
	for i := range v.Diffs {
		v.Diffs[i] = int64(c.U64())
	}
	return v, partDone(c)
}

// EncodeDone serializes a worker's closing frame.
func EncodeDone(d *DoneMsg) []byte {
	fixed := append(appendI64(make([]byte, 0, 8+1), d.Worker), d.Died)
	return mpi.EncodeParts([][]byte{header(kindDone), fixed})
}

// DecodeDone inverts EncodeDone.
func DecodeDone(frame []byte) (*DoneMsg, error) {
	parts, err := mpi.DecodeParts(frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if len(parts) != 2 {
		return nil, fmt.Errorf("shard: done frame has %d parts, want 2", len(parts))
	}
	kind, err := checkHeader(parts[0])
	if err != nil {
		return nil, err
	}
	if kind != kindDone {
		return nil, fmt.Errorf("shard: frame kind %d is not a done marker", kind)
	}
	c := framelog.NewCursor(parts[1])
	d := &DoneMsg{Worker: int64(c.U64()), Died: c.U8()}
	return d, partDone(c)
}
