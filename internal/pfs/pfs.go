// Package pfs simulates the parallel file system (Lustre on Polaris in the
// paper) that checkpoints and Merkle metadata live on.
//
// Files are stored on the real local filesystem under a root directory, so
// all data paths are genuinely exercised; alongside every operation the
// store returns a Cost that a cost model prices on the virtual clock. The
// model captures the two properties of a PFS that drive the paper's
// trade-offs and that a laptop's page cache would otherwise hide:
//
//   - per-operation latency dominates scattered small reads;
//   - bandwidth is shared, so concurrent processes contend.
//
// A page cache tracks residency at page granularity (one bit per page):
// reads and writes populate it, Evict (the "vmtouch -e" of the paper's
// methodology, §3.3.4) drops a file's pages so every experiment starts
// cold.
package pfs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// ErrClosed is returned by operations on a closed file or writer.
var ErrClosed = errors.New("pfs: closed")

// CostModel prices storage operations on the virtual clock.
type CostModel struct {
	// Name identifies the tier ("lustre", "nvme").
	Name string
	// ReadLatency is the per-operation latency of an uncached read.
	ReadLatency time.Duration
	// WriteLatency is the per-operation latency of a write.
	WriteLatency time.Duration
	// ReadBytesPerSec is the uncached read bandwidth of one synchronous
	// sequential stream (client-pipeline limited on a PFS).
	ReadBytesPerSec float64
	// ScatteredBytesPerSec is the aggregate bandwidth reachable by a deep
	// asynchronous queue of scattered reads, which stripe across a PFS's
	// object storage targets and exceed a single stream. Zero means no
	// boost (same as ReadBytesPerSec).
	ScatteredBytesPerSec float64
	// WriteBytesPerSec is the write bandwidth.
	WriteBytesPerSec float64
	// CachedLatency is the per-operation latency of a page-cache hit.
	CachedLatency time.Duration
	// CachedBytesPerSec is the page-cache copy bandwidth.
	CachedBytesPerSec float64
	// PageSize is the cache granularity in bytes.
	PageSize int
}

// LustreModel approximates the paper's Lustre PFS: high per-RPC latency for
// scattered reads, ~8 GB/s of shared sequential bandwidth per client group.
func LustreModel() CostModel {
	return CostModel{
		Name:                 "lustre",
		ReadLatency:          100 * time.Microsecond,
		WriteLatency:         150 * time.Microsecond,
		ReadBytesPerSec:      5.3e9,
		ScatteredBytesPerSec: 14e9,
		WriteBytesPerSec:     6e9,
		CachedLatency:        2 * time.Microsecond,
		CachedBytesPerSec:    20e9,
		PageSize:             4096,
	}
}

// NVMeModel approximates node-local NVMe, the first checkpoint tier.
func NVMeModel() CostModel {
	return CostModel{
		Name:                 "nvme",
		ReadLatency:          20 * time.Microsecond,
		WriteLatency:         25 * time.Microsecond,
		ReadBytesPerSec:      6e9,
		ScatteredBytesPerSec: 5e9,
		WriteBytesPerSec:     3e9,
		CachedLatency:        time.Microsecond,
		CachedBytesPerSec:    20e9,
		PageSize:             4096,
	}
}

// Validate reports whether the model is usable.
func (m CostModel) Validate() error {
	if m.PageSize <= 0 {
		return fmt.Errorf("pfs: model %q: page size must be positive", m.Name)
	}
	if m.ReadBytesPerSec <= 0 || m.WriteBytesPerSec <= 0 || m.CachedBytesPerSec <= 0 {
		return fmt.Errorf("pfs: model %q: bandwidths must be positive", m.Name)
	}
	return nil
}

// Cost is the resource consumption of one or more storage operations,
// split into cached and uncached components so backends can price latency
// overlap and bandwidth contention separately.
type Cost struct {
	Ops         int   // uncached operations
	CachedOps   int   // page-cache-hit operations
	Bytes       int64 // uncached bytes moved
	CachedBytes int64 // cached bytes moved
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.Ops += o.Ops
	c.CachedOps += o.CachedOps
	c.Bytes += o.Bytes
	c.CachedBytes += o.CachedBytes
}

// TotalBytes returns cached plus uncached bytes.
func (c Cost) TotalBytes() int64 { return c.Bytes + c.CachedBytes }

// LatencyTerm returns the summed per-op latency of the cost under the
// model, with every operation serialized (no overlap).
func (m CostModel) LatencyTerm(c Cost) time.Duration {
	return time.Duration(c.Ops)*m.ReadLatency + time.Duration(c.CachedOps)*m.CachedLatency
}

// BandwidthTerm returns the transfer time of the cost's bytes with the
// single-stream bandwidth shared by `sharers` concurrent processes.
func (m CostModel) BandwidthTerm(c Cost, sharers int) time.Duration {
	return m.bandwidthTerm(c, sharers, m.ReadBytesPerSec)
}

// ScatteredBandwidthTerm prices the cost's bytes at the deep-queue
// scattered-read bandwidth (OST striping), falling back to the stream
// bandwidth when the model defines no boost.
func (m CostModel) ScatteredBandwidthTerm(c Cost, sharers int) time.Duration {
	bw := m.ScatteredBytesPerSec
	if bw <= 0 {
		bw = m.ReadBytesPerSec
	}
	return m.bandwidthTerm(c, sharers, bw)
}

func (m CostModel) bandwidthTerm(c Cost, sharers int, bw float64) time.Duration {
	if sharers < 1 {
		sharers = 1
	}
	un := simclock.BandwidthTime(c.Bytes, bw/float64(sharers))
	ca := simclock.BandwidthTime(c.CachedBytes, m.CachedBytesPerSec)
	return un + ca
}

// SerialReadTime prices the cost as fully synchronous reads.
func (m CostModel) SerialReadTime(c Cost, sharers int) time.Duration {
	return m.LatencyTerm(c) + m.BandwidthTerm(c, sharers)
}

// WriteTime prices the cost as writes.
func (m CostModel) WriteTime(c Cost, sharers int) time.Duration {
	if sharers < 1 {
		sharers = 1
	}
	lat := time.Duration(c.Ops) * m.WriteLatency
	bw := simclock.BandwidthTime(c.Bytes+c.CachedBytes, m.WriteBytesPerSec/float64(sharers))
	return lat + bw
}

// Striping models a Lustre-style object layout: a file's byte range is
// split into StripeBytes-sized stripes laid out round-robin across
// Targets simulated object storage targets (OSTs). The metadata service
// decides the layout (this struct); the targets serve the striped reads,
// each with its own contention factor (Store.TargetSharers). The mapping
// is positional only — data still lives in one real file — but it lets
// placement-aware schedulers price reads per target instead of against
// one store-wide sharers factor.
type Striping struct {
	// Targets is the number of simulated OSTs. Values below 2 disable
	// striping (the whole store behaves as a single target 0).
	Targets int
	// StripeBytes is the stripe width. Must be positive when Targets > 1.
	StripeBytes int64
}

// Enabled reports whether the layout actually splits data across more
// than one target.
func (st Striping) Enabled() bool { return st.Targets > 1 && st.StripeBytes > 0 }

// Validate checks the layout parameters.
func (st Striping) Validate() error {
	if st.Targets > 1 && st.StripeBytes <= 0 {
		return fmt.Errorf("pfs: striping over %d targets needs a positive stripe width", st.Targets)
	}
	return nil
}

// TargetOf returns the OST index serving the stripe containing byte
// offset off. With striping disabled every offset maps to target 0.
func (st Striping) TargetOf(off int64) int {
	if !st.Enabled() {
		return 0
	}
	if off < 0 {
		off = 0
	}
	return int((off / st.StripeBytes) % int64(st.Targets))
}

// Store is one storage tier rooted at a real directory.
// It is safe for concurrent use.
type Store struct {
	root  string
	model CostModel

	mu      sync.Mutex
	cache   map[string]*pageSet // name -> resident pages
	sharers int

	// striping is the OST layout; targetSharers[t] overrides the
	// store-wide sharers factor for reads served by target t.
	striping      Striping
	targetSharers []int

	// openHandles counts files opened and not yet closed; leak tests
	// assert it returns to zero after error paths.
	openHandles int

	// Cumulative read-operation counters (cached + uncached), the
	// ground truth benchmarks diff to show I/O dedup wins.
	statReadOps   int64
	statReadBytes int64

	// fault is the installed fault-injection hook (nil on the clean path),
	// read lock-free once per operation.
	fault atomic.Pointer[FaultHook]
}

// pageSet is one file's page residency: bit p of the grow-only word slice
// is set while page p is cached. A read classifies and marks its whole
// page range a word at a time, so the store-wide lock is held for a few
// popcounts, not one map insert per 4 KiB page.
type pageSet struct {
	words    []uint64
	resident int
}

// mark sets pages [first, last] resident and returns how many were not.
func (ps *pageSet) mark(first, last int64) (cold int64) {
	if need := int(last>>6) + 1; need > len(ps.words) {
		ps.words = append(ps.words, make([]uint64, need-len(ps.words))...)
	}
	for w := first >> 6; w <= last>>6; w++ {
		mask := ^uint64(0)
		if w == first>>6 {
			mask &= ^uint64(0) << (uint(first) & 63)
		}
		if w == last>>6 {
			mask &= ^uint64(0) >> (63 - uint(last)&63)
		}
		cold += int64(bits.OnesCount64(mask &^ ps.words[w]))
		ps.words[w] |= mask
	}
	ps.resident += int(cold)
	return cold
}

// clear drops every page, keeping the words for the file's next reads.
func (ps *pageSet) clear() {
	clear(ps.words)
	ps.resident = 0
}

// pages returns the file's residency set, creating it on first use.
// Caller holds s.mu.
func (s *Store) pages(name string) *pageSet {
	ps := s.cache[name]
	if ps == nil {
		ps = &pageSet{}
		s.cache[name] = ps
	}
	return ps
}

// FaultHook intercepts storage operations for deterministic fault
// injection; implementations live in internal/faults. A hook must be safe
// for concurrent use — the store calls it without holding its own lock.
// Both read decisions are made when a read is priced (File.Price), before
// any of its bytes land.
type FaultHook interface {
	// BeforeRead may fail a read before it touches storage. A returned
	// error is wrapped with the usual "pfs: read name@off" context, so
	// retry classification survives via errors.As.
	BeforeRead(name string, off int64, n int) error
	// AfterRead decides what a successful read of n bytes at off suffers:
	// the bits to flip in them when they land, and an extra Cost added to
	// the read's — a latency spike priced on the virtual clock.
	AfterRead(name string, off int64, n int) ([]Flip, Cost)
	// BeforeWrite may fail a write. When it returns err != nil, the
	// first keep bytes (clamped to [0, n]) are still persisted — a torn
	// write. keep is ignored when err is nil.
	BeforeWrite(name string, off int64, n int) (keep int, err error)
	// BeforeClose may fail a writer's Close. The file is closed all the
	// same, so no handle leaks, and its bytes stay where they landed: the
	// error says they are not known to be durable.
	BeforeClose(name string) error
}

// Flip is one bit flip a fault hook chose for a read: the byte at file
// offset Off is XORed with Mask where the read lands.
type Flip struct {
	Off  int64
	Mask byte
}

// NewStore creates (if needed) the root directory and returns a store.
func NewStore(root string, model CostModel) (*Store, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("pfs: create root: %w", err)
	}
	return &Store{
		root:    root,
		model:   model,
		cache:   make(map[string]*pageSet),
		sharers: 1,
	}, nil
}

// Model returns the store's cost model.
func (s *Store) Model() CostModel { return s.model }

// Root returns the backing directory.
func (s *Store) Root() string { return s.root }

// SetSharers sets the number of processes assumed to contend for the
// store's bandwidth (the cluster harness calls this).
func (s *Store) SetSharers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	s.sharers = n
}

// Sharers returns the current contention factor.
func (s *Store) Sharers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharers
}

// SetStriping installs an OST layout on the store and clears any
// per-target sharers table. Returns the layout's validation error, if
// any, leaving the store unchanged.
func (s *Store) SetStriping(st Striping) error {
	if err := st.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.striping = st
	s.targetSharers = nil
	return nil
}

// Striping returns the installed OST layout (zero value when unset).
func (s *Store) Striping() Striping {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.striping
}

// SetTargetSharers installs a per-OST contention table: sharers[t] is
// the number of workers assumed to contend for target t's bandwidth.
// Entries below 1 fall back to the store-wide sharers factor, as do
// targets beyond the table. Passing nil clears the table. The slice is
// copied.
func (s *Store) SetTargetSharers(sharers []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(sharers) == 0 {
		s.targetSharers = nil
		return
	}
	s.targetSharers = append([]int(nil), sharers...)
}

// TargetSharers returns the contention factor for reads served by OST
// target. Without a table entry it falls back to the store-wide factor.
func (s *Store) TargetSharers(target int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if target >= 0 && target < len(s.targetSharers) && s.targetSharers[target] >= 1 {
		return s.targetSharers[target]
	}
	return s.sharers
}

// OpenHandles returns the number of files currently open for reading on
// the store. Leak tests assert this returns to zero after every
// comparison, including failed ones.
func (s *Store) OpenHandles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openHandles
}

// ReadStats returns the cumulative read-operation count (cached plus
// uncached) and bytes moved since the store was created. Benchmarks diff
// two snapshots to measure how many PFS operations an approach issued.
func (s *Store) ReadStats() (ops, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statReadOps, s.statReadBytes
}

// path maps a store-relative name to the backing path, rejecting escapes.
func (s *Store) path(name string) (string, error) {
	clean := filepath.Clean(name)
	if clean == "." || strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("pfs: invalid name %q", name)
	}
	return filepath.Join(s.root, clean), nil
}

// SetFaultHook installs (or, with nil, removes) the store's fault-injection
// hook. Exactly one hook is active at a time; internal/faults provides the
// implementations and the schedule language.
func (s *Store) SetFaultHook(h FaultHook) {
	if h == nil {
		s.fault.Store(nil)
		return
	}
	s.fault.Store(&h)
}

// hook snapshots the installed fault hook.
func (s *Store) hook() FaultHook {
	if h := s.fault.Load(); h != nil {
		return *h
	}
	return nil
}

// Evict drops all of the file's pages from the simulated page cache — the
// equivalent of `vmtouch -e` in the paper's methodology.
func (s *Store) Evict(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cache, name)
}

// EvictAll drops every file's pages. The per-file sets are emptied in
// place: a benchmark that evicts before every comparison re-marks the
// same pages each time, and should not re-grow the set each time too.
func (s *Store) EvictAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ps := range s.cache {
		ps.clear()
	}
}

// ResidentPages returns how many pages of the file are cached.
func (s *Store) ResidentPages(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps := s.cache[name]; ps != nil {
		return ps.resident
	}
	return 0
}

// Remove deletes a file and its cache entries, and retires its mapping.
func (s *Store) Remove(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	s.Evict(name)
	if st, err := os.Stat(p); err == nil {
		retire(keyOf(st))
	}
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("pfs: remove %s: %w", name, err)
	}
	return nil
}

// List returns the names of files under the store root with the prefix,
// sorted lexicographically; a Create's temporary is not one of them.
func (s *Store) List(prefix string) ([]string, error) {
	var names []string
	err := filepath.WalkDir(s.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), tmpPrefix) {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, prefix) {
			names = append(names, rel)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pfs: list: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// pagesOf returns the page index range [first, last] covering [off, off+n).
func (m CostModel) pagesOf(off int64, n int) (int64, int64) {
	first := off / int64(m.PageSize)
	last := (off + int64(n) - 1) / int64(m.PageSize)
	return first, last
}

// touch classifies the page range of a read as cached/uncached bytes, marks
// the pages resident, and returns the cost of a single read operation over
// that range. Callers hold no lock.
func (s *Store) touch(name string, off int64, n int) Cost {
	if n <= 0 {
		return Cost{}
	}
	first, last := s.model.pagesOf(off, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	cold := s.pages(name).mark(first, last)
	total := int64(n)
	coldBytes := cold * int64(s.model.PageSize)
	if coldBytes > total {
		coldBytes = total
	}
	c := Cost{Bytes: coldBytes, CachedBytes: total - coldBytes}
	if cold > 0 {
		c.Ops = 1
	} else {
		c.CachedOps = 1
	}
	s.statReadOps++
	s.statReadBytes += total
	return c
}

// markWritten marks the page range resident after a write and returns its
// write cost (one op, all bytes uncached for bandwidth purposes).
func (s *Store) markWritten(name string, off int64, n int) Cost {
	if n <= 0 {
		return Cost{}
	}
	first, last := s.model.pagesOf(off, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages(name).mark(first, last)
	return Cost{Ops: 1, Bytes: int64(n)}
}

// File is an open read handle. A read is two halves: Price charges it —
// fault decisions, page cache, read counters — and Copy or Land lands its
// bytes. ReadAt is the two in sequence; stage 2 prices a window's reads at
// once, then lands them as views before it verifies them.
type File struct {
	store *Store
	name  string
	f     *os.File // its own, or its table entry's
	size  int64
	key   mapKey                  // the mapping table's name for the file
	m     atomic.Pointer[mapping] // its table entry, from the first Land to Close

	// flips are the bit flips priced reads chose and Copy applies, by file
	// offset; mu guards them, and pending counts them so a Copy with none
	// to apply takes no lock.
	mu      sync.Mutex
	flips   []Flip
	pending atomic.Int32
}

// Open opens a file for reading. It stats the path first: a file the
// mapping table holds at that size is read through the descriptor its
// entry holds, and nothing is opened. An entry pins its inode, so a stat
// that finds the entry's (device, inode) names the held file; a file
// replaced after the stat reads as if it had been opened just before.
func (s *Store) Open(name string) (*File, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(p)
	if err != nil {
		return nil, fmt.Errorf("pfs: open %s: %w", name, err)
	}
	f := &File{store: s, name: name, size: st.Size(), key: keyOf(st)}
	if !f.adopt() {
		if f.f, err = os.Open(p); err != nil {
			return nil, fmt.Errorf("pfs: open %s: %w", name, err)
		}
		if st, err = f.f.Stat(); err != nil {
			_ = f.f.Close() // the stat error takes precedence
			return nil, fmt.Errorf("pfs: stat %s: %w", name, err)
		}
		f.size, f.key = st.Size(), keyOf(st)
	}
	s.mu.Lock()
	s.openHandles++
	s.mu.Unlock()
	return f, nil
}

// Name returns the store-relative name.
func (f *File) Name() string { return f.name }

// Store returns the store the file belongs to (for cost pricing).
func (f *File) Store() *Store { return f.store }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// ReadAt reads len(p) bytes at offset off, returning the bytes read and the
// cost of the operation: the read priced, then landed in p with the flips
// its pricing chose. Short reads at EOF return io.EOF like os.File.
func (f *File) ReadAt(p []byte, off int64) (int, Cost, error) {
	cost, flips, err := f.price(off, len(p))
	if err != nil {
		return 0, Cost{}, err
	}
	n, err := f.f.ReadAt(p, off)
	applyFlips(p[:n], off, flips)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, cost, fmt.Errorf("pfs: read %s@%d: %w", f.name, off, err)
	}
	return n, cost, err
}

// Price charges a read of n bytes at off without moving them: the fault
// hook's decisions, the page cache's classification of the range, the
// store's read counters. The range is priced up to the end of the file as
// it was opened. The bit flips the hook chose wait for the Copy that lands
// their bytes, in place of any an earlier Price of those bytes left.
func (f *File) Price(off int64, n int) (Cost, error) {
	return f.PriceLanding(off, n, off, off+int64(n))
}

// PriceLanding is Price for a read of which only the bytes at [lo, hi)
// land — a page-fault cluster around the bytes a caller wants: the flips
// the hook chose elsewhere are dropped, and only pending flips in [lo, hi)
// are replaced.
func (f *File) PriceLanding(off int64, n int, lo, hi int64) (Cost, error) {
	cost, flips, err := f.price(off, n)
	if err != nil {
		return cost, err
	}
	flips = slices.DeleteFunc(flips, func(fl Flip) bool { return fl.Off < lo || fl.Off >= hi })
	if len(flips) == 0 && f.pending.Load() == 0 {
		return cost, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flips = slices.DeleteFunc(f.flips, func(fl Flip) bool { return fl.Off >= lo && fl.Off < hi })
	f.flips = append(f.flips, flips...)
	f.pending.Store(int32(len(f.flips)))
	return cost, nil
}

// price is the pricing half of a read: what it costs and the flips the
// fault hook chose for it.
func (f *File) price(off int64, n int) (Cost, []Flip, error) {
	if f.f == nil {
		return Cost{}, nil, ErrClosed
	}
	if off < 0 {
		return Cost{}, nil, fmt.Errorf("pfs: read %s@%d: negative offset", f.name, off)
	}
	h := f.store.hook()
	if h != nil {
		if err := h.BeforeRead(f.name, off, n); err != nil {
			return Cost{}, nil, fmt.Errorf("pfs: read %s@%d: %w", f.name, off, err)
		}
	}
	n = int(max(0, min(int64(n), f.size-off)))
	cost := f.store.touch(f.name, off, n)
	var flips []Flip
	if h != nil && n > 0 {
		var extra Cost
		flips, extra = h.AfterRead(f.name, off, n)
		cost.Add(extra)
	}
	return cost, flips, nil
}

// Copy lands len(p) bytes at off in p — the copying half of a read its
// Price charged — with the flips pending on them. A read that comes back
// short (the file shrank since it was priced) is an error wrapping
// io.ErrUnexpectedEOF.
func (f *File) Copy(p []byte, off int64) error {
	if f.f == nil {
		return ErrClosed
	}
	n, err := f.f.ReadAt(p, off)
	if n < len(p) {
		if err == nil || errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("pfs: read %s@%d: %d of %d bytes: %w", f.name, off, n, len(p), err)
	}
	if f.pending.Load() != 0 {
		f.mu.Lock()
		applyFlips(p, off, f.flips)
		f.mu.Unlock()
	}
	return nil
}

// copyOut is Land where it cannot view: a buffer of its own, filled by
// Copy.
func (f *File) copyOut(off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	return buf, f.Copy(buf, off)
}

// Guard runs fn, which reads views Land returned, with
// debug.SetPanicOnFault on, and restores the goroutine's mode after. It
// recovers a fault only at an address in the mapping of one of files
// (nil entries are skipped) whose file now ends at or before the faulting
// byte, and returns that file's index; any other panic — a write to a
// view, a nil dereference — is re-raised. It returns -1 when fn ran
// through, and allocates only to recover. A cut inside a page faults
// nowhere (the view reads zeros): the caller checks what fn read with
// Holds after, which also gives a recovered fault its error.
func Guard(fn func(), files ...*File) (faulted int) {
	defer func(was bool) {
		debug.SetPanicOnFault(was)
		p := recover()
		if p == nil {
			return
		}
		if fault, ok := p.(interface{ Addr() uintptr }); ok {
			for i, f := range files {
				if f != nil && f.cutAt(fault.Addr()) {
					faulted = i
					return
				}
			}
		}
		panic(p)
	}(debug.SetPanicOnFault(true))
	fn()
	return -1
}

// Holds is the size check of a view, one allocation-free fstat: nil while
// the file still holds the n bytes at off, else an error naming them that
// wraps io.ErrUnexpectedEOF.
func (f *File) Holds(off int64, n int) error {
	size, err := f.SizeNow()
	if err != nil {
		return fmt.Errorf("pfs: %s: %w", f.name, err)
	}
	if size < off+int64(n) {
		return fmt.Errorf("pfs: %s@%d+%d: the file now ends at %d: %w", f.name, off, n, size, io.ErrUnexpectedEOF)
	}
	return nil
}

// applyFlips applies the flips that fall in p, which holds the bytes at
// off.
func applyFlips(p []byte, off int64, flips []Flip) {
	for _, fl := range flips {
		if d := fl.Off - off; d >= 0 && d < int64(len(p)) {
			p[d] ^= fl.Mask
		}
	}
}

// ReadAtCtx is ReadAt with a cancellation point: a read against an
// already-canceled context fails with ctx.Err() before touching storage.
// The asynchronous backends route their per-operation reads through this
// so a canceled comparison stops issuing I/O promptly.
func (f *File) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, Cost, error) {
	if err := ctx.Err(); err != nil {
		return 0, Cost{}, err
	}
	return f.ReadAt(p, off)
}

// Close releases the handle: its reference on the mapping table's entry,
// and its descriptor unless the entry holds it.
func (f *File) Close() error {
	if f.f == nil {
		return nil
	}
	var err error
	if !f.dropView() {
		err = f.f.Close()
	}
	f.f = nil
	f.store.mu.Lock()
	f.store.openHandles--
	f.store.mu.Unlock()
	return err
}

// Writer is a streaming file writer that accumulates virtual cost.
type Writer struct {
	store     *Store
	name      string
	f         *os.File
	off       int64
	cost      Cost
	tmp, path string // a Create's temporary and the path Close renames it to
}

// tmpPrefix starts the name of a Create's temporary, which List skips.
const tmpPrefix = ".pfs-tmp."

// Create opens a writer that replaces the file: its bytes go to a temporary
// beside it that Close renames over the name, so open Files and their views
// keep what they opened. A write that fails does not stop the publish:
// Close renames what landed, no longer than that, so a file whose writes
// were torn — for a checkpoint, whose header is written last, one that
// starts with zeros — is what readers meet. A process killed before Close
// leaves the old file and an orphan temporary, never swept (a sweeper
// would race another process's writer), which may hold blocks Reserve
// reserved past its end; nothing is synced, so a lost machine may lose the
// replace.
func (s *Store) Create(name string) (*Writer, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	for {
		tmp := filepath.Join(filepath.Dir(p), tmpPrefix+filepath.Base(p)+"."+strconv.FormatUint(rand.Uint64(), 36))
		f, err := openMaking(name, p, func() (*os.File, error) {
			return os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		})
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("pfs: create %s: %w", name, err)
		}
		s.Evict(name)
		return &Writer{store: s, name: name, f: f, tmp: tmp, path: p}, nil
	}
}

// Append opens a file for appending, creating it when absent. The writer
// continues at the current end of file, so append-only logs (the CAS pack
// and its index) grow across sessions without rewriting earlier content.
// Unlike Create, existing cached pages stay resident: appending adds data,
// it does not invalidate what readers already fetched. The file's mapping,
// sized to the old end, is retired.
func (s *Store) Append(name string) (*Writer, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	f, err := openMaking(name, p, func() (*os.File, error) {
		return os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	})
	if err != nil {
		return nil, fmt.Errorf("pfs: append %s: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // the stat error takes precedence
		return nil, fmt.Errorf("pfs: stat %s: %w", name, err)
	}
	retire(keyOf(st))
	return &Writer{store: s, name: name, f: f, off: st.Size()}, nil
}

// openMaking opens a writer's file with open and, only where that fails
// because p's directory is missing, creates the directories and opens once
// more: a directory is made once, not stat-walked before every open.
func openMaking(name, p string, open func() (*os.File, error)) (*os.File, error) {
	f, err := open()
	if !errors.Is(err, fs.ErrNotExist) {
		return f, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("pfs: create dirs for %s: %w", name, err)
	}
	return open()
}

var (
	_ io.WriteCloser = (*Writer)(nil)
	_ io.WriterAt    = (*Writer)(nil)
)

// Write appends bytes, tracking cost per operation.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.write(p, w.off, false)
	w.off += int64(n)
	return n, err
}

// WriteAt writes bytes at off, leaving Write's position where it is, under
// the same fault hook and cost per operation as Write.
func (w *Writer) WriteAt(p []byte, off int64) (int, error) { return w.write(p, off, true) }

// write is one write of p at off: asked of the fault hook, which may tear
// it, then charged for what landed.
func (w *Writer) write(p []byte, off int64, at bool) (int, error) {
	if w.f == nil {
		return 0, ErrClosed
	}
	n := len(p)
	var ferr error
	if h := w.store.hook(); h != nil {
		var keep int
		// A torn write persists a prefix before failing, so the file —
		// once Close publishes a Create's — genuinely holds partial
		// content for readers to trip over.
		if keep, ferr = h.BeforeWrite(w.name, off, n); ferr != nil {
			n = min(max(keep, 0), n)
		}
	}
	var err error
	if n > 0 {
		if at {
			n, err = w.f.WriteAt(p[:n], off)
		} else {
			n, err = w.f.Write(p[:n])
		}
	}
	w.cost.Add(w.store.markWritten(w.name, off, n))
	if err = cmp.Or(ferr, err); err != nil {
		return n, fmt.Errorf("pfs: write %s: %w", w.name, err)
	}
	return n, nil
}

// Cost returns the accumulated write cost so far.
func (w *Writer) Cost() Cost { return w.cost }

// Close closes the file and, for a Create, retires the old file's mapping
// and renames the temporary over the name — on every path, a torn write or
// a failed close included, so readers see what was written. The hook's
// error takes precedence over the close's, that over the rename's.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	var ferr error
	if h := w.store.hook(); h != nil {
		ferr = h.BeforeClose(w.name)
	}
	err := w.f.Close()
	w.f = nil
	if w.tmp != "" {
		if st, serr := os.Stat(w.path); serr == nil {
			retire(keyOf(st))
		}
		if rerr := os.Rename(w.tmp, w.path); rerr != nil {
			_ = os.Remove(w.tmp) // the rename error is reported
			err = cmp.Or(err, rerr)
		}
	}
	if err = cmp.Or(ferr, err); err != nil {
		return fmt.Errorf("pfs: close %s: %w", w.name, err)
	}
	return nil
}

// LandWhole charges the whole file as ReadFileFull reads it — the context
// checked, then one Price per blockSize bytes (<= 0 selects 1 MiB), in
// order — and lands it with one Land: a view valid until Close, or, with a
// flip pending or no mapping, a copy of its own. A caller reads the view
// under Guard and checks it with Holds after.
func (f *File) LandWhole(ctx context.Context, blockSize int) ([]byte, Cost, error) {
	if blockSize <= 0 {
		blockSize = 1 << 20
	}
	var total Cost
	for off := int64(0); off < f.size; off += int64(blockSize) {
		if err := ctx.Err(); err != nil {
			return nil, total, err
		}
		c, err := f.Price(off, int(min(int64(blockSize), f.size-off)))
		total.Add(c)
		if err != nil {
			return nil, total, err
		}
	}
	data, err := f.Land(0, int(f.size))
	return data, total, err
}

// ReadFileFull reads an entire file sequentially in large blocks into a
// buffer of its own and returns it with the aggregate cost: the reader of
// whole files whose bytes outlive the file (compare.LoadMetadata, the
// checkpointer's flush, journal replay, the run catalog). Each block read
// is a cancellation point. A block that comes back short — the file shrank
// after it was opened — is an error wrapping io.ErrUnexpectedEOF, never
// content with a tail the read did not fill.
func (s *Store) ReadFileFull(ctx context.Context, name string, blockSize int) ([]byte, Cost, error) {
	if blockSize <= 0 {
		blockSize = 1 << 20
	}
	f, err := s.Open(name)
	if err != nil {
		return nil, Cost{}, err
	}
	defer f.Close()
	data := make([]byte, f.Size())
	var total Cost
	for off := int64(0); off < f.Size(); off += int64(blockSize) {
		end := min(off+int64(blockSize), f.Size())
		n, c, err := f.ReadAtCtx(ctx, data[off:end], off)
		total.Add(c)
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, total, err
		}
		if int64(n) < end-off {
			return nil, total, fmt.Errorf("pfs: read %s@%d: %d of %d bytes: %w", name, off, n, end-off, io.ErrUnexpectedEOF)
		}
	}
	return data, total, nil
}
