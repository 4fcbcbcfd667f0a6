// Package cas implements a content-addressed chunk store keyed by the
// ε-quantized leaf digest of the comparator's chained Murmur3 hash.
// Differential capture writes each checkpoint chunk through the store:
// chunks whose digest is already present are deduplicated against the
// stored representative, and only new content is appended to a shared
// pack file. Because every run of an experiment captures into the same
// store, the dedup is cross-run as well as cross-iteration — a replica
// that agrees with the baseline within ε writes almost nothing.
//
// On-disk layout under the pfs store, at the fixed "cas/" prefix:
//
//	cas/pack.dat   — append-only chunk bytes (the representatives)
//	cas/index.log  — append-only framed log (internal/framelog) mapping
//	                 digest → extent, one frame per put
//
// Both files only ever grow, which gives simple crash consistency: a pack
// record is made durable *before* its index entries, so a torn pack write
// leaves an unreferenced hole that later appends simply skip past, and a
// torn index frame is a hole replay resynchronizes across — the chunks it
// named are stored again by whoever offers them next. The index can never
// reference bytes that were not fully written.
//
// The digest is ε-lossy by construction: two chunks whose elements fall in
// the same quantization cells share a digest even when their bytes differ.
// Dedup therefore stores one representative per cell pattern; every reader
// of a deduplicated chunk sees values within ε of what that run computed.
// See DESIGN.md §13 for the soundness argument and its composition bounds.
package cas

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"repro/internal/framelog"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

const (
	// PackName is the pfs path of the shared append-only chunk pack.
	PackName = "cas/pack.dat"
	// IndexName is the pfs path of the append-only digest index log.
	IndexName = "cas/index.log"

	// indexMagic is the index log's frame magic, "CIDX" little-endian.
	indexMagic uint32 = 0x58444943
	// entrySize is one stored (digest, extent) entry — digest (16) + pack
	// offset (8) + length (4) — the unit of an index frame's payload and of
	// a manifest's field sections.
	entrySize = murmur3.DigestSize + 8 + 4
	// indexFrameBytes is the most entry bytes one frame carries: whole
	// entries under the frame's payload bound.
	indexFrameBytes = framelog.MaxPayload / entrySize * entrySize

	// slabFlush caps the coalescing arena used to batch consecutive new
	// chunks into single pack writes (the PR-3 arena idiom applied to the
	// scatter of dirty extents at capture time).
	slabFlush = 4 << 20
)

// ErrCorrupt reports CAS on-disk state that fails its integrity checks:
// a complete index frame with a bad CRC, an index entry whose extent runs
// past the end of the pack, or a scrubbed chunk whose bytes no longer
// hash to their digest.
var ErrCorrupt = errors.New("cas: corrupt store")

// Loc is the extent of one stored chunk inside the pack file.
type Loc struct {
	Off int64
	Len int32
}

// appendEntry serializes one entry.
func appendEntry(b []byte, d murmur3.Digest, loc Loc) []byte {
	b = append(b, d[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(loc.Off))
	return binary.LittleEndian.AppendUint32(b, uint32(loc.Len))
}

// readEntry inverts appendEntry.
func readEntry(c *framelog.Cursor) (murmur3.Digest, Loc) {
	return c.Digest(), Loc{Off: int64(c.U64()), Len: int32(c.U32())}
}

// CaptureStats summarizes one differential put.
type CaptureStats struct {
	// Chunks is the number of chunks offered.
	Chunks int
	// DedupHits counts chunks whose digest was already stored (including
	// duplicates within the same put).
	DedupHits int
	// ChunksWritten counts chunks appended to the pack.
	ChunksWritten int
	// BytesWritten is the pack bytes appended (excludes index records).
	BytesWritten int64
	// BytesTotal is the logical size of the offered chunks.
	BytesTotal int64
}

// Add accumulates other into s.
func (s *CaptureStats) Add(other CaptureStats) {
	s.Chunks += other.Chunks
	s.DedupHits += other.DedupHits
	s.ChunksWritten += other.ChunksWritten
	s.BytesWritten += other.BytesWritten
	s.BytesTotal += other.BytesTotal
}

// Store is a content-addressed chunk store layered on a pfs.Store. It is
// safe for concurrent use; puts are serialized (the pack is append-only).
type Store struct {
	fs *pfs.Store

	mu       sync.Mutex
	index    map[murmur3.Digest]Loc
	packSize int64
	idx      framelog.Log // the index log's append side
	slab     []byte       // grow-only coalescing arena, reused across puts
	recs     []byte       // grow-only index-entry buffer, reused across puts
}

// Open replays the index log against the current pack size and returns the
// store. A missing pack/index (fresh store) is not an error. The returned
// cost covers the replay read.
//
// A torn index append is crash damage: replay skips it, as a hole when
// later appends followed and as the torn tail otherwise. What a crash
// cannot produce is fatal: a complete frame whose CRC fails, a frame that
// is not whole entries, an entry pointing outside the pack.
func Open(ctx context.Context, fsys *pfs.Store) (*Store, pfs.Cost, error) {
	s := &Store{
		fs:    fsys,
		index: make(map[murmur3.Digest]Loc),
		idx:   framelog.Log{Store: fsys, Name: IndexName, Magic: indexMagic},
	}
	if f, err := fsys.Open(PackName); err == nil {
		s.packSize = f.Size()
		if cerr := f.Close(); cerr != nil {
			return nil, pfs.Cost{}, cerr
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, pfs.Cost{}, err
	}

	raw, cost, err := s.idx.Read(ctx)
	if err != nil {
		return nil, cost, err
	}
	damage, err := framelog.Replay(raw, indexMagic, func(off int64, payload []byte) error {
		if len(payload) == 0 || len(payload)%entrySize != 0 {
			return fmt.Errorf("%w: index frame at %d holds %d bytes, not whole entries", ErrCorrupt, off, len(payload))
		}
		for c := framelog.NewCursor(payload); c.Off() < len(payload); {
			d, loc := readEntry(c)
			if loc.Len <= 0 || loc.Off < 0 || loc.Off+int64(loc.Len) > s.packSize {
				return fmt.Errorf("%w: index frame at %d references [%d,+%d) beyond pack size %d",
					ErrCorrupt, off, loc.Off, loc.Len, s.packSize)
			}
			s.index[d] = loc
		}
		return nil
	})
	if err != nil {
		return nil, cost, err
	}
	if len(damage.BadCRC) > 0 {
		return nil, cost, fmt.Errorf("%w: index frame at %d fails CRC", ErrCorrupt, damage.BadCRC[0])
	}
	// Not one frame, in a log at least one PR-7 record long that does not
	// even start with the magic: the bare 32-byte record grid, which has no
	// anchor to replay from. Refuse it by name rather than open it empty.
	if len(s.index) == 0 && len(raw) >= 32 && framelog.NewCursor(raw).U32() != indexMagic {
		return nil, cost, fmt.Errorf("cas: %s is not a framed index: the unframed PR-7 layout "+
			"(32-byte records, no frame magic) is not readable by this build", IndexName)
	}
	return s, cost, nil
}

// Len returns the number of distinct digests stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// PackSize returns the current pack file size in bytes (including any
// unreferenced holes left by torn writes).
func (s *Store) PackSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.packSize
}

// Lookup returns the stored extent for a digest.
func (s *Store) Lookup(d murmur3.Digest) (Loc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.index[d]
	return loc, ok
}

// PutChunks stores the chunks of data at chunkSize granularity, where
// digests[i] is the ε-quantized leaf digest of chunk i (the last chunk may
// be short). Chunks whose digest is already present — from an earlier put,
// another run, or earlier in this same call — are deduplicated; new chunks
// are appended to the pack in coalesced batches and their index records
// made durable only after the pack write succeeds.
//
// The returned locations map each input chunk to its representative
// extent. On error the returned cost and stats cover the writes that did
// complete — partial but truthful, so bench deltas stay honest under fault
// injection — and every chunk whose bytes fully reached the pack remains
// usable through the in-memory index.
func (s *Store) PutChunks(data []byte, chunkSize int, digests []murmur3.Digest) ([]Loc, CaptureStats, pfs.Cost, error) {
	if chunkSize <= 0 {
		return nil, CaptureStats{}, pfs.Cost{}, fmt.Errorf("cas: chunk size %d must be positive", chunkSize)
	}
	nChunks := (len(data) + chunkSize - 1) / chunkSize
	if len(digests) != nChunks {
		return nil, CaptureStats{}, pfs.Cost{}, fmt.Errorf("cas: %d digests for %d chunks", len(digests), nChunks)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	locs := make([]Loc, nChunks)
	stats := CaptureStats{Chunks: nChunks, BytesTotal: int64(len(data))}

	// Plan pass: resolve dedup hits against the index and assign pack
	// offsets to new chunks in input order (so consecutive new chunks are
	// adjacent in the pack and coalesce into one write).
	type pending struct {
		chunk int
		loc   Loc
	}
	var news []pending
	nextOff := s.packSize
	claimed := make(map[murmur3.Digest]int) // digest → index into news, for intra-put dups
	for i := 0; i < nChunks; i++ {
		lo := i * chunkSize
		hi := lo + chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		n := int32(hi - lo)
		if loc, ok := s.index[digests[i]]; ok && loc.Len == n {
			locs[i] = loc
			stats.DedupHits++
			continue
		}
		if j, ok := claimed[digests[i]]; ok && news[j].loc.Len == n {
			locs[i] = news[j].loc
			stats.DedupHits++
			continue
		}
		loc := Loc{Off: nextOff, Len: n}
		claimed[digests[i]] = len(news)
		news = append(news, pending{chunk: i, loc: loc})
		locs[i] = loc
		nextOff += int64(n)
	}
	if len(news) == 0 {
		return locs, stats, pfs.Cost{}, nil
	}

	// Write pass: append the new chunks through the coalescing arena, then
	// index every chunk whose bytes fully persisted. The writer's offset
	// tracks actual durable bytes, so a torn write indexes only the prefix.
	w, err := s.fs.Append(PackName)
	if err != nil {
		return locs, stats, pfs.Cost{}, err
	}
	base := s.packSize
	written := int64(0)
	slab := s.slab[:0]
	var werr error
	flush := func() {
		if len(slab) == 0 || werr != nil {
			return
		}
		n, err := w.Write(slab)
		written += int64(n)
		werr = err
		slab = slab[:0]
	}
	for _, p := range news {
		lo := p.chunk * chunkSize
		slab = append(slab, data[lo:lo+int(p.loc.Len)]...)
		if len(slab) >= slabFlush {
			flush()
		}
		if werr != nil {
			break
		}
	}
	flush()
	s.slab = slab[:0]
	cost := w.Cost()
	cerr := w.Close()
	if werr == nil {
		werr = cerr
	}
	s.packSize = base + written

	// Index only chunks that fully landed; a chunk torn at the boundary is
	// abandoned (its bytes become an unreferenced hole in the pack). A pack
	// whose close failed is not known to hold any of this put's bytes, so
	// the whole put is such a hole.
	landed := s.packSize
	if cerr != nil {
		landed = base
	}
	recs := s.recs[:0]
	for _, p := range news {
		if p.loc.Off+int64(p.loc.Len) > landed {
			break
		}
		s.index[digests[p.chunk]] = p.loc
		stats.ChunksWritten++
		stats.BytesWritten += int64(p.loc.Len)
		recs = appendEntry(recs, digests[p.chunk], p.loc)
	}
	s.recs = recs[:0]
	// One frame per put; a put too large for one frame is split at the
	// bound. A failed append leaves its chunks usable in memory and the
	// log ready for the next put — it skips the torn bytes.
	for len(recs) > 0 {
		n := min(len(recs), indexFrameBytes)
		c, err := s.idx.Append(recs[:n])
		cost.Add(c)
		if err != nil {
			if werr == nil {
				werr = err
			}
			break
		}
		recs = recs[n:]
	}
	return locs, stats, cost, werr
}

// Pack opens the pack file for reading. The caller owns the handle.
func (s *Store) Pack() (*pfs.File, error) {
	return s.fs.Open(PackName)
}

// Scrub re-reads every indexed extent and re-hashes it with the provided
// hash function (injected because digests are ε-quantized: the store does
// not know ε or the element type). It returns the number of chunks
// verified and wraps ErrCorrupt on the first mismatch — proof that no
// index record ever points at torn or rotted bytes.
func (s *Store) Scrub(ctx context.Context, hash func(chunk []byte) (murmur3.Digest, error)) (int, error) {
	s.mu.Lock()
	type entry struct {
		d   murmur3.Digest
		loc Loc
	}
	entries := make([]entry, 0, len(s.index))
	for d, loc := range s.index {
		entries = append(entries, entry{d, loc})
	}
	s.mu.Unlock()
	// Deterministic scan order (and sequential pack I/O).
	sort.Slice(entries, func(i, j int) bool { return entries[i].loc.Off < entries[j].loc.Off })

	f, err := s.fs.Open(PackName)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var buf []byte
	for i, e := range entries {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		if int(e.loc.Len) > len(buf) {
			buf = make([]byte, e.loc.Len)
		}
		b := buf[:e.loc.Len]
		if _, _, err := f.ReadAt(b, e.loc.Off); err != nil {
			return i, fmt.Errorf("cas: scrub read [%d,+%d): %w", e.loc.Off, e.loc.Len, err)
		}
		got, err := hash(b)
		if err != nil {
			return i, err
		}
		if got != e.d {
			return i, fmt.Errorf("%w: chunk at [%d,+%d) hashes to %x, index says %x",
				ErrCorrupt, e.loc.Off, e.loc.Len, got, e.d)
		}
	}
	return len(entries), nil
}
