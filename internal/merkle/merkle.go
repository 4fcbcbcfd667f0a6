// Package merkle implements the flattened, GPU-style Merkle tree that
// serves as compact checkpoint metadata (paper §2.3, §2.5.1).
//
// The tree is a complete binary tree stored as a flat array (node i has
// children 2i+1 and 2i+2), with the leaf layer padded to a power of two.
// Leaves are the error-bounded digests of fixed-size data chunks; interior
// nodes hash the concatenation of their children. Construction is
// level-synchronous and data-parallel: all hashes within a level are
// computed concurrently through a device.Executor, with synchronization
// only between levels — exactly the Kokkos kernel structure of the paper.
//
// Comparison (Diff) is the pruned breadth-first search of Fig. 4: it
// starts at a configurable middle level (so enough nodes are in flight to
// keep every worker busy), prunes every subtree whose roots match, and
// descends only into mismatching subtrees, returning the set of leaf chunk
// indices that may differ.
package merkle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"repro/internal/device"
	"repro/internal/framelog"
	"repro/internal/murmur3"
)

// Sentinel errors for callers that need to match failure modes.
var (
	// ErrGeometry is returned when two trees cannot be compared because
	// their chunk size or data length differ.
	ErrGeometry = errors.New("merkle: trees have different geometry")
	// ErrCorrupt is returned when deserialization fails an integrity check.
	ErrCorrupt = errors.New("merkle: corrupt metadata")
)

// Tree is a flattened complete binary Merkle tree over the chunks of one
// checkpoint field. The zero value is not usable; construct with New.
type Tree struct {
	chunkSize int
	dataLen   int64
	numLeaves int // real (unpadded) leaf count
	leafBase  int // flat index of the first leaf
	depth     int // leaf level; root is level 0
	// nodes holds the 2*paddedLeaves − 1 digests back to back, as the
	// serialized form does: Decode adopts a file buffer as it is and
	// WriteTo writes this slice as it is.
	nodes []byte
}

// node returns node i's digest in place.
func (t *Tree) node(i int) *murmur3.Digest {
	return (*murmur3.Digest)(t.nodes[i*murmur3.DigestSize:])
}

// New creates a tree over data of dataLen bytes split into chunkSize-byte
// chunks, with the given leaf digests (len(leaves) must equal
// ceil(dataLen/chunkSize)). Interior nodes are computed by Build.
func New(dataLen int64, chunkSize int, leaves []murmur3.Digest) (*Tree, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("merkle: chunk size %d must be positive", chunkSize)
	}
	if dataLen <= 0 {
		return nil, fmt.Errorf("merkle: data length %d must be positive", dataLen)
	}
	want := int((dataLen + int64(chunkSize) - 1) / int64(chunkSize))
	if len(leaves) != want {
		return nil, fmt.Errorf("merkle: %d leaves for dataLen=%d chunkSize=%d, want %d",
			len(leaves), dataLen, chunkSize, want)
	}
	t := newShell(dataLen, chunkSize, want, make([]byte, shellBytes(want)))
	for i := range leaves {
		*t.node(t.leafBase + i) = leaves[i]
	}
	return t, nil
}

// paddedLeaves returns numLeaves rounded up to a power of two and that
// power, the leaf level.
func paddedLeaves(numLeaves int) (padded, depth int) {
	padded = 1
	for padded < numLeaves {
		padded <<= 1
		depth++
	}
	return padded, depth
}

// shellBytes is the size of the node array of a tree with numLeaves leaves.
func shellBytes(numLeaves int) int {
	padded, _ := paddedLeaves(numLeaves)
	return (2*padded - 1) * murmur3.DigestSize
}

// newShell returns a tree of the given geometry over nodes, which must be
// shellBytes(numLeaves) long.
func newShell(dataLen int64, chunkSize, numLeaves int, nodes []byte) *Tree {
	padded, depth := paddedLeaves(numLeaves)
	return &Tree{
		chunkSize: chunkSize,
		dataLen:   dataLen,
		numLeaves: numLeaves,
		leafBase:  padded - 1,
		depth:     depth,
		nodes:     nodes,
	}
}

// buildSerialCutoff is the level width below which Build hashes inline
// instead of dispatching a kernel: near the root a level holds a handful
// of ~60 ns pair hashes, so even a reused worker pool costs more to wake
// than the level takes serially.
const buildSerialCutoff = 128

// Build computes all interior hashes bottom-up, level by level, running
// each level's hashes in parallel on the executor. Levels narrower than
// buildSerialCutoff (the top of the tree) run inline on the calling
// goroutine — the per-level kernel dispatch would dominate them.
func (t *Tree) Build(exec device.Executor) {
	if exec == nil {
		exec = device.Serial{}
	}
	for level := t.depth - 1; level >= 0; level-- {
		base := (1 << level) - 1
		width := 1 << level
		if width <= buildSerialCutoff {
			for j := 0; j < width; j++ {
				node := base + j
				*t.node(node) = murmur3.HashPair(*t.node(2*node + 1), *t.node(2*node + 2))
			}
			continue
		}
		exec.For(width, func(j int) {
			node := base + j
			*t.node(node) = murmur3.HashPair(*t.node(2*node + 1), *t.node(2*node + 2))
		})
	}
}

// Root returns the root digest (valid after Build).
func (t *Tree) Root() murmur3.Digest { return *t.node(0) }

// Clone returns a deep copy of the tree. Incremental capture clones the
// previous iteration's tree and applies Update to the changed leaves,
// leaving the original usable for concurrent comparisons.
func (t *Tree) Clone() *Tree {
	c := *t
	c.nodes = bytes.Clone(t.nodes)
	return &c
}

// NumChunks returns the number of real data chunks (leaves).
func (t *Tree) NumChunks() int { return t.numLeaves }

// ChunkSize returns the chunk size in bytes.
func (t *Tree) ChunkSize() int { return t.chunkSize }

// DataLen returns the original data length in bytes.
func (t *Tree) DataLen() int64 { return t.dataLen }

// Depth returns the leaf level (the root is level 0).
func (t *Tree) Depth() int { return t.depth }

// Leaf returns the digest of chunk i.
func (t *Tree) Leaf(i int) murmur3.Digest { return *t.node(t.leafBase + i) }

// ChunkRange returns the byte range [off, off+n) of chunk i within the
// original data; the final chunk may be short.
func (t *Tree) ChunkRange(i int) (off int64, n int) {
	off = int64(i) * int64(t.chunkSize)
	n = t.chunkSize
	if rem := t.dataLen - off; int64(n) > rem {
		n = int(rem)
	}
	return off, n
}

// MetadataBytes returns the serialized size of the tree, the analogue of
// the paper's 2·D·(N/C − 1) metadata-size formula.
func (t *Tree) MetadataBytes() int64 {
	return int64(headerSize) + int64(len(t.nodes)) + 4 // + CRC
}

// DefaultStartLevel returns the BFS start level for the given parallelism:
// the highest level whose width is at least 4× the worker count (so every
// worker has nodes to process immediately), clamped to the leaf level.
// This is the paper's "start in the middle of the tree" heuristic.
func (t *Tree) DefaultStartLevel(parallelism int) int {
	if parallelism < 1 {
		parallelism = 1
	}
	target := 4 * parallelism
	level := bits.Len(uint(target - 1)) // ceil(log2(target))
	if level > t.depth {
		level = t.depth
	}
	return level
}

// Diff compares two trees with identical geometry and returns the sorted
// chunk indices whose leaf digests differ, using a pruned level-synchronous
// BFS that starts at startLevel (use DefaultStartLevel, or 0 to start at
// the root). Matching interior nodes prune their whole subtree. The
// returned count of compared nodes lets callers price the traversal.
func Diff(a, b *Tree, startLevel int, exec device.Executor) (chunks []int, nodesCompared int64, err error) {
	if a.chunkSize != b.chunkSize || a.dataLen != b.dataLen || a.numLeaves != b.numLeaves {
		return nil, 0, fmt.Errorf("%w: (%d,%d,%d) vs (%d,%d,%d)", ErrGeometry,
			a.chunkSize, a.dataLen, a.numLeaves, b.chunkSize, b.dataLen, b.numLeaves)
	}
	if exec == nil {
		exec = device.Serial{}
	}
	if startLevel < 0 {
		startLevel = 0
	}
	if startLevel > a.depth {
		startLevel = a.depth
	}

	// Seed the frontier with every node at startLevel whose subtree
	// contains at least one real leaf (padding subtrees are skipped).
	levelBase := (1 << startLevel) - 1
	width := 1 << startLevel
	// Number of real leaves under each start-level node: the subtree of
	// node j at startLevel spans leaves [j*span, (j+1)*span).
	span := 1 << (a.depth - startLevel)
	// Two buffers serve every level: cur holds a level's frontier and next
	// what its kernel writes — the children of each mismatching node, -1
	// for a pruned one, or at the leaf level a mark per node — compacted
	// in place into the next frontier before the two swap. next is cleared
	// first, so a kernel a cancellation cut short lists nothing stale.
	cur := make([]int32, 0, 2*width)
	for j := 0; j < width; j++ {
		if j*span < a.numLeaves {
			cur = append(cur, int32(levelBase+j))
		}
	}
	var next []int32
	interior := func(i int) {
		if n := cur[i]; *a.node(int(n)) != *b.node(int(n)) {
			next[2*i], next[2*i+1] = 2*n+1, 2*n+2
		} else {
			next[2*i], next[2*i+1] = -1, -1
		}
	}
	leaf := func(i int) {
		if n := cur[i]; *a.node(int(n)) != *b.node(int(n)) {
			next[i] = n - int32(a.leafBase) + 1 // +1: 0 means match
		}
	}

	for level := startLevel; len(cur) > 0; level++ {
		nodesCompared += int64(len(cur))
		if level == a.depth {
			// Leaf level: the mismatching chunk indices, counted first so
			// the answer is allocated once at its size.
			next = resize(next, len(cur))
			exec.For(len(cur), leaf)
			marked := 0
			for _, m := range next {
				if m > 0 {
					marked++
				}
			}
			if marked > 0 {
				chunks = make([]int, 0, marked)
				for _, m := range next {
					if m > 0 {
						chunks = append(chunks, int(m-1))
					}
				}
			}
			break
		}
		next = resize(next, 2*len(cur))
		exec.For(len(cur), interior)
		childSpan := 1 << (a.depth - level - 1)
		childBase := (1 << (level + 1)) - 1
		k := 0
		for _, n := range next {
			// Skip pruned nodes and padding-only subtrees.
			if n >= 0 && (int(n)-childBase)*childSpan < a.numLeaves {
				next[k] = n
				k++
			}
		}
		cur, next = next[:k], cur
	}
	return chunks, nodesCompared, nil
}

// resize returns buf cleared at length n, reallocated only when its
// capacity is short.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, max(n, 2*cap(buf)))
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Serialization format (little-endian):
//
//	magic   [4]byte "MRKL"
//	version u16 (1)
//	digest  u16 (16)
//	chunk   u32
//	leaves  u32
//	dataLen u64
//	nodes   [2P-1][16]byte
//	crc32   u32 (IEEE, over header+nodes)
const (
	headerSize   = 4 + 2 + 2 + 4 + 4 + 8
	formatMagic  = "MRKL"
	formatVer    = 1
	maxLeafCount = 1 << 30 // sanity bound against corrupt headers
	// MinEncoded is the serialized size of the smallest tree, one leaf.
	MinEncoded = headerSize + murmur3.DigestSize + 4
)

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, headerSize)
	copy(hdr[0:4], formatMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVer)
	binary.LittleEndian.PutUint16(hdr[6:8], murmur3.DigestSize)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(t.chunkSize))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(t.numLeaves))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(t.dataLen))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, t.nodes)
	var written int64
	for _, part := range [][]byte{hdr, t.nodes, binary.LittleEndian.AppendUint32(nil, crc)} {
		n, err := w.Write(part)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("merkle: write tree: %w", err)
		}
	}
	return written, nil
}

// Decode deserializes the tree at the front of data (the form WriteTo
// produces) and returns it with the number of bytes it occupies. The tree
// is decoded in place: it keeps data's node bytes as its node array, so
// the caller must not write to data afterwards. Nothing is allocated
// before the length and the checksum have been verified.
func Decode(data []byte) (*Tree, int, error) {
	c := framelog.NewCursor(data)
	magic := c.Bytes(4)
	version, digestSize := c.U16(), c.U16()
	chunkSize, numLeaves := int(c.U32()), int(c.U32())
	dataLen := int64(c.U64())
	if c.Err() != nil {
		return nil, 0, fmt.Errorf("merkle: read header: %w", io.ErrUnexpectedEOF)
	}
	if string(magic) != formatMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	if version != formatVer {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	if digestSize != murmur3.DigestSize {
		return nil, 0, fmt.Errorf("%w: digest size %d, want %d", ErrCorrupt, digestSize, murmur3.DigestSize)
	}
	if chunkSize <= 0 || numLeaves <= 0 || numLeaves > maxLeafCount || dataLen <= 0 {
		return nil, 0, fmt.Errorf("%w: implausible geometry chunk=%d leaves=%d dataLen=%d",
			ErrCorrupt, chunkSize, numLeaves, dataLen)
	}
	if want := int((dataLen + int64(chunkSize) - 1) / int64(chunkSize)); want != numLeaves {
		return nil, 0, fmt.Errorf("%w: leaf count %d inconsistent with dataLen/chunk (%d)",
			ErrCorrupt, numLeaves, want)
	}
	nodes := c.Bytes(shellBytes(numLeaves))
	body := c.Off()
	crc := c.U32()
	if c.Err() != nil {
		return nil, 0, fmt.Errorf("merkle: read nodes: %w", io.ErrUnexpectedEOF)
	}
	if crc != crc32.ChecksumIEEE(data[:body]) {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return newShell(dataLen, chunkSize, numLeaves, nodes), c.Off(), nil
}
