package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/framelog"
)

// encodeF64 serializes a float64 vector little-endian.
func encodeF64(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// decodeF64 inverts encodeF64.
func decodeF64(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 payload length %d not a multiple of 8", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// encodeParts serializes a list of byte slices with length prefixes
// (u32 part count, then u32 length + bytes per part, little-endian): the
// framing AllGather broadcasts the gathered parts in.
func encodeParts(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(parts)))
	for _, p := range parts {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// decodeParts inverts encodeParts, rejecting truncated payloads and
// payloads with bytes left over. The part count is held against the bytes
// that are there (a part costs at least its length prefix) before it sizes
// anything.
func decodeParts(data []byte) ([][]byte, error) {
	c := framelog.NewCursor(data)
	n := c.U32()
	if c.Err() != nil || int64(n) > int64(len(c.Rest())/4) {
		return nil, errors.New("mpi: truncated parts payload")
	}
	parts := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		p := c.Bytes(int(c.U32()))
		if c.Err() != nil {
			return nil, errors.New("mpi: truncated parts payload")
		}
		parts = append(parts, bytes.Clone(p))
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("mpi: after the last part: %w", err)
	}
	return parts, nil
}
