// Package murmur3 implements the 128-bit x64 variant of MurmurHash3
// (referred to as Murmur3F in the paper and in SMHasher), the
// non-cryptographic hash used for error-bounded chunk hashing.
//
// The implementation is a from-scratch transliteration of the public-domain
// reference algorithm by Austin Appleby. It supports 64-bit seeds as well as
// 128-bit digest seeding, which the chained block-hashing scheme of the
// comparator uses (the digest of block i seeds the hash of block i+1).
package murmur3

import (
	"encoding/binary"
	"math/bits"
)

const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

// DigestSize is the size of a Murmur3F digest in bytes.
const DigestSize = 16

// Digest is a 128-bit Murmur3F hash value in canonical little-endian byte
// order (h1 first, then h2).
type Digest [DigestSize]byte

// Sum128 computes the 128-bit Murmur3F hash of data with a 64-bit seed
// (both internal state words are initialized to the seed, matching the
// reference implementation's 32-bit seed widening behaviour generalized to
// 64 bits).
func Sum128(data []byte, seed uint64) (uint64, uint64) {
	return Sum128Seeded(data, seed, seed)
}

// Sum128Seeded computes the 128-bit Murmur3F hash of data with independent
// 64-bit seeds for the two internal state words. Chained block hashing uses
// the two halves of the previous digest as the seeds of the next block.
func Sum128Seeded(data []byte, seed1, seed2 uint64) (uint64, uint64) {
	h1, h2 := seed1, seed2
	n := len(data)
	nblocks := n / 16

	for i := 0; i < nblocks; i++ {
		h1, h2 = Mix(h1, h2,
			binary.LittleEndian.Uint64(data[i*16:]), binary.LittleEndian.Uint64(data[i*16+8:]))
	}

	tail := data[nblocks*16:]
	var k1, k2 uint64
	switch len(tail) & 15 {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		h2 ^= bits.RotateLeft64(k2*c2, 33) * c1
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		h1 ^= bits.RotateLeft64(k1*c1, 31) * c2
	}
	return Fin(h1, h2, uint64(n))
}

// SumDigest computes the Murmur3F digest of data using a previous digest as
// the 128-bit seed. A zero Digest is a valid initial seed.
func SumDigest(data []byte, seed Digest) Digest {
	c := NewChain(seed)
	c.H1, c.H2 = Sum128Seeded(data, c.H1, c.H2)
	return c.Sum()
}

// HashPair hashes the concatenation of two digests, the interior-node
// operation of the Merkle tree. The input length is statically 32, so the
// block loop is two rounds and the tail is empty; the output is
// bit-identical to SumDigest(left||right, Digest{}).
func HashPair(left, right Digest) Digest {
	var c Chain
	c.H1, c.H2 = Mix(0, 0,
		binary.LittleEndian.Uint64(left[0:8]), binary.LittleEndian.Uint64(left[8:16]))
	c.H1, c.H2 = Mix(c.H1, c.H2,
		binary.LittleEndian.Uint64(right[0:8]), binary.LittleEndian.Uint64(right[8:16]))
	c.H1, c.H2 = Fin(c.H1, c.H2, 2*DigestSize)
	return c.Sum()
}

// Mix is the body round of the x64 128-bit algorithm: it absorbs one
// 16-byte block, given as two little-endian words, into the state words.
// Mix and Fin are the whole hash on explicit state, each under the
// compiler's inline budget (costs 47 and 77 of 80; go build -gcflags=-m
// says so), so a kernel that keeps (h1, h2) in locals across its loop pays
// no call and no state load/store per block.
func Mix(h1, h2, k1, k2 uint64) (uint64, uint64) {
	h1 ^= bits.RotateLeft64(k1*c1, 31) * c2
	h1 = (bits.RotateLeft64(h1, 27)+h2)*5 + 0x52dce729
	h2 ^= bits.RotateLeft64(k2*c2, 33) * c1
	h2 = (bits.RotateLeft64(h2, 31)+h1)*5 + 0x38495ab5
	return h1, h2
}

// Fin is the finalization of an n-byte input: length xor and the fmix64
// avalanche. In the chained-block scheme it runs after every block (n =
// 16), because the digest of block i is the seed of block i+1.
func Fin(h1, h2, n uint64) (uint64, uint64) {
	h1 ^= n
	h2 ^= n
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// Chain is a streaming chained-block hasher: the fused equivalent of the
// comparator's per-block digest chaining
//
//	digest = SumDigest(block, digest)
//
// with the two state words kept live as uint64 across blocks instead of
// being serialized to a Digest and re-parsed as the next seed. Digest
// serialization is little-endian h1 then h2 and Sum128Seeded seeds
// (s1, s2) from exactly those words, so carrying (H1, H2) forward is
// bit-identical to the round-trip — Sum() after any sequence of
// Block/BlockTail calls equals the digest the SumDigest chain would have
// produced. The zero Chain is ready to use and corresponds to the zero
// Digest seed.
//
// Each block still runs the full finalization (length xor, fmix64
// avalanche): chaining semantics pin the block boundary, so finalization
// per block is part of the hash definition, not overhead that can be
// deferred. What the Chain eliminates is the per-block seed/serialize
// round-trip, the slice framing, and the dead 0..15 tail switch. The state
// words are exported for the leaf-hash kernel, which runs Mix and Fin on
// them as locals and hands the chain back for the tail and the Sum.
type Chain struct {
	H1, H2 uint64
}

// NewChain returns a Chain seeded from a previous digest (use the zero
// Chain for a zero seed).
func NewChain(seed Digest) Chain {
	return Chain{
		H1: binary.LittleEndian.Uint64(seed[0:8]),
		H2: binary.LittleEndian.Uint64(seed[8:16]),
	}
}

// Block absorbs one full 16-byte block given as two little-endian uint64
// words, exactly as if SumDigest had hashed those 16 bytes seeded by the
// current state.
func (c *Chain) Block(k1, k2 uint64) {
	h1, h2 := Mix(c.H1, c.H2, k1, k2)
	c.H1, c.H2 = Fin(h1, h2, 16)
}

// BlockTail absorbs a final half block: one 8-byte little-endian word,
// exactly as if SumDigest had hashed those 8 bytes seeded by the current
// state (the odd-cell tail of an odd-element chunk) — the k1 tail path of
// Sum128Seeded, no body round for h2.
func (c *Chain) BlockTail(k1 uint64) {
	c.H1, c.H2 = Fin(c.H1^bits.RotateLeft64(k1*c1, 31)*c2, c.H2, 8)
}

// Sum returns the current chain state as a Digest.
func (c *Chain) Sum() Digest {
	var d Digest
	binary.LittleEndian.PutUint64(d[0:8], c.H1)
	binary.LittleEndian.PutUint64(d[8:16], c.H2)
	return d
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
