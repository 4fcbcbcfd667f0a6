package compare

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/framelog"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// Metadata is the compact Merkle representation of one checkpoint: one
// error-bounded tree per field (paper §2.3).
type Metadata struct {
	// Epsilon is the error bound the leaves were hashed under. Two
	// metadata files are comparable only with equal ε and chunk size.
	Epsilon float64
	// Fields holds one named tree per checkpoint field, in field order.
	Fields []FieldMeta
}

// FieldMeta is the tree of one field.
type FieldMeta struct {
	Name  string
	DType errbound.DType
	Tree  *merkle.Tree
}

// CombinedRoot folds the per-field Merkle roots into one digest that
// identifies the whole checkpoint snapshot: field names and roots are
// chained in field order, so any field rename, reorder, or content
// change under the active ε moves the combined root. This is the digest
// the verdict ledger (internal/wal) binds into each record.
func (m *Metadata) CombinedRoot() murmur3.Digest {
	var acc murmur3.Digest
	for _, f := range m.Fields {
		acc = murmur3.SumDigest([]byte(f.Name), acc)
		acc = murmur3.HashPair(acc, f.Tree.Root())
	}
	return acc
}

// BuildStats reports metadata construction cost.
type BuildStats struct {
	// HashVirtual prices the leaf-hash kernels on the device model.
	HashVirtual time.Duration
	// TreeVirtual prices the interior-node kernels (one per level).
	TreeVirtual time.Duration
	// Wall is the measured construction time.
	Wall time.Duration
	// Bytes is the data hashed.
	Bytes int64
}

// TotalVirtual returns hash + tree virtual time, the Fig. 8 metric.
func (s BuildStats) TotalVirtual() time.Duration { return s.HashVirtual + s.TreeVirtual }

// Build constructs checkpoint metadata from in-memory field buffers (the
// paper's checkpoint-time path, where the data is already resident on the
// device). data[i] must match fields[i].Bytes().
func Build(fields []ckpt.FieldSpec, data [][]byte, opts Options) (*Metadata, BuildStats, error) {
	m, stats, _, err := build(nil, fields, nil, data, opts)
	return m, stats, err
}

// BuildFromReader builds the metadata of a checkpoint on a store, reading
// each block as it is hashed, and returns the storage cost of the reads
// (the offline-tool path). Cancellation is observed before every block; on
// an error the cost covers the reads that completed.
func BuildFromReader(ctx context.Context, r *ckpt.Reader, opts Options) (*Metadata, BuildStats, pfs.Cost, error) {
	m, stats, cost, err := build(ctx.Done(), r.Meta().Fields, r, nil, opts)
	if cerr := ctx.Err(); cerr != nil {
		return nil, stats, cost, cerr
	}
	return m, stats, cost, err
}

// Block sizes of the leaf loop. A reader block is what one ReadFieldAt
// fetches: the largest whole number of chunks within 1 MiB, which for every
// power-of-two chunk size is the 1 MiB grid ckpt.ReadField reads on, so the
// loop issues the reads a whole-field read-back would (a chunk over 1 MiB
// is one block, read in 1 MiB pieces on that grid). A memory block costs
// nothing to fetch and is kept small so one 1 MiB field still spreads over
// the pool.
const (
	readBlockBytes = 1 << 20
	memBlockBytes  = 64 << 10
)

// leafBlock is one work item of the leaf loop: n bytes of a field at off,
// a whole number of chunks (the field's last block may end in a short one).
type leafBlock struct {
	field int
	off   int64
	n     int
}

// build is the capture pipeline behind Build and BuildFromReader: the leaf
// loop, then the trees. The differential capturer runs the same two halves
// around its store (DiffCapturer.Capture).
func build(done <-chan struct{}, fields []ckpt.FieldSpec, r *ckpt.Reader, data [][]byte, opts Options) (*Metadata, BuildStats, pfs.Cost, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, BuildStats{}, pfs.Cost{}, err
	}
	sw := metrics.NewStopwatch()
	leaves, cost, err := hashLeaves(done, fields, r, data, opts)
	if err != nil {
		return nil, BuildStats{}, cost, err
	}
	m, stats, err := buildTrees(fields, leaves, opts)
	if err != nil {
		return nil, stats, cost, err
	}
	stats.Wall = sw.Lap()
	return m, stats, cost, nil
}

// hashLeaves is the one leaf loop of every capture path. Work items are
// (field, block) over all fields in one coarse dispatch, so small fields do
// not underfill the pool and no field waits for another; each item fetches
// its block — a sub-slice of data, or with r set a read into an arena
// buffer that goes back once its chunks are hashed — and writes the block's
// leaf digests. Memory held is Workers × one block, whatever the checkpoint
// size, and a block is hashed while it is still in cache. In-memory buffers
// are held to their specs first (a reader's header already was); the lowest
// failing item's error is the one reported, as a serial scan would; items
// above a failed one are skipped, as are all once done closes.
func hashLeaves(done <-chan struct{}, fields []ckpt.FieldSpec, r *ckpt.Reader, data [][]byte, opts Options) ([][]murmur3.Digest, pfs.Cost, error) {
	// Check shapes, construct hashers and cut the blocks serially, so size
	// and ε errors surface deterministically in field order.
	unit := readBlockBytes
	if r == nil {
		unit = memBlockBytes
		if err := ckpt.CheckFields(fields, data); err != nil {
			return nil, pfs.Cost{}, err
		}
	}
	unit = max(unit/opts.ChunkSize, 1) * opts.ChunkSize
	hashers := make([]*errbound.Hasher, len(fields))
	leaves := make([][]murmur3.Digest, len(fields))
	var blocks []leafBlock
	for i, f := range fields {
		h, err := opts.hasherFor(f.DType)
		if err != nil {
			return nil, pfs.Cost{}, err
		}
		hashers[i] = h
		leaves[i] = make([]murmur3.Digest, (f.Bytes()+int64(opts.ChunkSize)-1)/int64(opts.ChunkSize))
		for off := int64(0); off < f.Bytes(); off += int64(unit) {
			blocks = append(blocks, leafBlock{field: i, off: off, n: int(min(int64(unit), f.Bytes()-off))})
		}
	}

	var (
		firstErr kernelError
		arena    *aio.Arena
		mu       sync.Mutex // guards total
		total    pfs.Cost
	)
	if r != nil {
		arena = opts.arena()
	}
	device.Cancelable{Done: done, Inner: opts.Exec}.ForCoarse(len(blocks), func(i int) {
		if firstErr.below(i) {
			return
		}
		b := blocks[i]
		var block []byte
		if r == nil {
			block = data[b.field][b.off : b.off+int64(b.n)]
		} else {
			set := arena.Get(b.n)
			defer arena.Put(set)
			block = set.Buf[:b.n]
			for o := 0; o < b.n; o += readBlockBytes {
				_, cost, err := r.ReadFieldAt(b.field, block[o:min(o+readBlockBytes, b.n)], b.off+int64(o))
				mu.Lock()
				total.Add(cost)
				mu.Unlock()
				if err != nil {
					firstErr.store(i, err)
					return
				}
			}
		}
		out := leaves[b.field][b.off/int64(opts.ChunkSize):]
		for c := 0; len(block) > 0; c++ {
			n := min(opts.ChunkSize, len(block))
			d, err := hashers[b.field].HashChunk(block[:n])
			if err != nil {
				firstErr.store(i, err)
				return
			}
			out[c], block = d, block[n:]
		}
	})
	if e := firstErr.p.Load(); e != nil {
		return nil, total, fmt.Errorf("compare: field %q: %w", fields[blocks[e.index].field].Name, e.err)
	}
	select {
	case <-done:
		return nil, total, context.Canceled // the caller reports its own context's error
	default:
	}
	return leaves, total, nil
}

// buildTrees is the tree half of a full build: one tree per field over its
// leaves, built and priced in field order, deterministic regardless of how
// the blocks interleaved — one leaf-hash kernel over each field's bytes, one
// node kernel per interior level.
func buildTrees(fields []ckpt.FieldSpec, leaves [][]murmur3.Digest, opts Options) (*Metadata, BuildStats, error) {
	var stats BuildStats
	m := &Metadata{Epsilon: opts.Epsilon, Fields: make([]FieldMeta, 0, len(fields))}
	for i, f := range fields {
		tree, err := merkle.New(f.Bytes(), opts.ChunkSize, leaves[i])
		if err != nil {
			return nil, stats, fmt.Errorf("compare: field %q: %w", f.Name, err)
		}
		tree.Build(opts.Exec)
		m.Fields = append(m.Fields, FieldMeta{Name: f.Name, DType: f.DType, Tree: tree})
		stats.HashVirtual += opts.Device.HashTime(f.Bytes())
		for level := tree.Depth() - 1; level >= 0; level-- {
			stats.TreeVirtual += opts.Device.NodeHashTime(int64(1) << level)
		}
		stats.Bytes += f.Bytes()
	}
	return m, stats, nil
}

// kernelError captures the lowest-index error produced by a parallel
// kernel without allocating an O(iterations) error slice per build: a CAS
// loop keeps the entry with the smallest index, so the reported error is
// the same one a serial scan would find, regardless of worker
// interleaving.
type kernelError struct {
	p atomic.Pointer[indexedError]
}

type indexedError struct {
	index int
	err   error
}

// store records err for iteration index unless an earlier iteration
// already failed.
func (k *kernelError) store(index int, err error) {
	e := &indexedError{index: index, err: err}
	for {
		cur := k.p.Load()
		if cur != nil && cur.index <= index {
			return
		}
		if k.p.CompareAndSwap(cur, e) {
			return
		}
	}
}

// below reports whether an iteration before index has failed: what lets
// later iterations stop without ever hiding a lower-index error.
func (k *kernelError) below(index int) bool {
	e := k.p.Load()
	return e != nil && e.index < index
}

// MetadataName returns the canonical metadata file name for a checkpoint
// file name.
func MetadataName(checkpointName string) string { return checkpointName + ".mrkl" }

// Metadata container format:
//
//	magic   [4]byte "RMET"
//	version u16
//	nfields u16
//	epsilon f64 bits
//	fields  n × { name u16 len + bytes, dtype u8, tree (merkle format) }
const (
	metaMagic = "RMET"
	metaVer   = 1
)

// WriteTo serializes the metadata container.
func (m *Metadata) WriteTo(w io.Writer) (int64, error) {
	if len(m.Fields) == 0 || len(m.Fields) > 0xffff {
		return 0, fmt.Errorf("compare: metadata field count %d out of range", len(m.Fields))
	}
	bw := bufio.NewWriter(w)
	var written int64
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, metaMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, metaVer)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(m.Fields)))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(m.Epsilon))
	n, err := bw.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("compare: write metadata header: %w", err)
	}
	for _, f := range m.Fields {
		if len(f.Name) == 0 || len(f.Name) > 0xffff {
			return written, fmt.Errorf("compare: field name length %d out of range", len(f.Name))
		}
		var fh []byte
		fh = binary.LittleEndian.AppendUint16(fh, uint16(len(f.Name)))
		fh = append(fh, f.Name...)
		fh = append(fh, byte(f.DType))
		n, err := bw.Write(fh)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("compare: write field header: %w", err)
		}
		tn, err := f.Tree.WriteTo(bw)
		written += tn
		if err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("compare: flush metadata: %w", err)
	}
	return written, nil
}

// minFieldBytes is the smallest serialized field (a one-byte name over a
// one-leaf tree): what the header's field count is held against before it
// sizes anything.
const minFieldBytes = 2 + 1 + 1 + merkle.MinEncoded

// DecodeMetadata deserializes a metadata container held in memory. The
// trees are decoded in place (merkle.Decode): they keep data as their node
// arrays, so the caller must not write to it afterwards.
func DecodeMetadata(data []byte) (*Metadata, error) {
	c := framelog.NewCursor(data)
	magic := c.Bytes(4)
	version, nf := c.U16(), int(c.U16())
	epsilon := math.Float64frombits(c.U64())
	if c.Err() != nil {
		return nil, fmt.Errorf("compare: read metadata header: %w", io.ErrUnexpectedEOF)
	}
	if string(magic) != metaMagic {
		return nil, fmt.Errorf("%w: bad metadata magic %q", merkle.ErrCorrupt, magic)
	}
	if version != metaVer {
		return nil, fmt.Errorf("%w: unsupported metadata version %d", merkle.ErrCorrupt, version)
	}
	if nf == 0 {
		return nil, fmt.Errorf("%w: zero fields", merkle.ErrCorrupt)
	}
	if nf > len(c.Rest())/minFieldBytes {
		return nil, fmt.Errorf("compare: read %d fields: %w", nf, io.ErrUnexpectedEOF)
	}
	m := &Metadata{Epsilon: epsilon, Fields: make([]FieldMeta, 0, nf)}
	for i := 0; i < nf; i++ {
		nameLen := int(c.U16())
		if c.Err() != nil {
			return nil, fmt.Errorf("compare: read field %d header: %w", i, io.ErrUnexpectedEOF)
		}
		if nameLen == 0 || nameLen > 4096 {
			return nil, fmt.Errorf("%w: field %d name length %d", merkle.ErrCorrupt, i, nameLen)
		}
		name := c.Bytes(nameLen)
		dtype := errbound.DType(c.U8())
		if c.Err() != nil {
			return nil, fmt.Errorf("compare: read field %d name: %w", i, io.ErrUnexpectedEOF)
		}
		if dtype.Size() == 0 {
			return nil, fmt.Errorf("%w: field %d bad dtype %d", merkle.ErrCorrupt, i, dtype)
		}
		tree, n, err := merkle.Decode(c.Rest())
		if err != nil {
			return nil, err
		}
		c.Bytes(n)
		m.Fields = append(m.Fields, FieldMeta{Name: string(name), DType: dtype, Tree: tree})
	}
	return m, nil
}

// Bytes returns the serialized size of the metadata.
func (m *Metadata) Bytes() int64 {
	var t int64 = 16
	for _, f := range m.Fields {
		t += int64(2+len(f.Name)+1) + f.Tree.MetadataBytes()
	}
	return t
}

// SaveMetadata writes the metadata next to its checkpoint on a store.
func SaveMetadata(store *pfs.Store, checkpointName string, m *Metadata) (pfs.Cost, error) {
	w, err := store.Create(MetadataName(checkpointName))
	if err != nil {
		return pfs.Cost{}, err
	}
	if _, err := m.WriteTo(w); err != nil {
		w.Close()
		return w.Cost(), err
	}
	cost := w.Cost()
	if err := w.Close(); err != nil {
		return cost, err
	}
	return cost, nil
}

// LoadMetadata reads the metadata for a checkpoint from a store, returning
// the read cost and the wall time spent deserializing. The read observes
// the context block by block. The metadata owns the bytes it was decoded
// from, so it lives as long as the caller keeps it.
func LoadMetadata(ctx context.Context, store *pfs.Store, checkpointName string) (*Metadata, pfs.Cost, time.Duration, error) {
	return loadMetadata(ctx, store, checkpointName, new(aio.BufSet))
}

// loadMetadata is LoadMetadata over a recycled buffer: the file is read
// into the set's buffer when that holds it, and the set adopts what was
// allocated in its place when it does not, so a set that was too small goes
// back to its arena large enough. The trees are decoded in place
// (DecodeMetadata): the metadata is valid until the set is put back — for
// good when, as in LoadMetadata, the set is nobody's to put back.
func loadMetadata(ctx context.Context, store *pfs.Store, checkpointName string, into *aio.BufSet) (*Metadata, pfs.Cost, time.Duration, error) {
	data, cost, err := store.ReadFileFull(ctx, MetadataName(checkpointName), 4<<20, into.Buf)
	if err != nil {
		return nil, cost, 0, err
	}
	into.Buf = data
	sw := metrics.NewStopwatch()
	m, err := DecodeMetadata(data)
	if err != nil {
		return nil, cost, sw.Lap(), err
	}
	return m, cost, sw.Lap(), nil
}
