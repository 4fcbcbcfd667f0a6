package compare

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// This file is the stage-2 verification kernel: the one place a chunk
// pair is verified, reached by every planner — single-node or sharded —
// through the stream pipeline's consumer (plan.go). What happens to one
// chunk — the integrity rung on a side, the ε-compare and memo insert on a
// pair — is here.

// chunkVerdict is the kernel's verdict on one chunk pair.
type chunkVerdict uint8

// Chunk verdicts. The zero value marks a pair the kernel never reached
// (a failed or canceled stream).
const (
	chunkPending chunkVerdict = iota
	// chunkClean: verified, every element within ε.
	chunkClean
	// chunkChanged: verified, at least one element beyond ε.
	chunkChanged
	// chunkUnverified: a side failed leaf-hash integrity verification, so
	// the pair was excluded from diffing — untrusted bytes must produce
	// neither a false divergence nor a false match.
	chunkUnverified
)

// verifyLeaf is the integrity rung for one chunk side: the streamed bytes
// must re-hash to the leaf their metadata was built from — corruption
// beyond ε quantization (bit rot, a torn transfer) cannot masquerade as a
// clean chunk. On mismatch the chunk is re-read once from f at off, in
// place and under the comparison's context (an in-flight flip re-reads
// clean; media corruption repeats). ok reports whether data now holds
// verified bytes, cost what the re-read, if any, cost.
func verifyLeaf(ctx context.Context, h *errbound.Hasher, data []byte, want murmur3.Digest, f *pfs.File, off int64) (ok bool, cost pfs.Cost) {
	if got, err := h.HashChunk(data); err == nil && got == want {
		return true, pfs.Cost{}
	}
	n, cost, err := f.ReadAtCtx(ctx, data, off)
	if err != nil || n != len(data) {
		return false, cost
	}
	got, err := h.HashChunk(data)
	return err == nil && got == want, cost
}

// chunkJob is one chunk pair handed to the kernel.
type chunkJob struct {
	hasher *errbound.Hasher
	// a and b are the two sides' bytes. A nil side is one the integrity
	// rung could not verify: the pair is excluded from diffing.
	a, b []byte
	// base is the element index, within the field, of the chunk's first
	// element: reported indices are field-absolute.
	base int64
	// memo, when set, records the verdict under the digest pair. Sound
	// only in differential mode: both byte strings are CAS
	// representatives, so one digest names exactly one stored byte string
	// and the verdict is a pure function of the (full) digest pair.
	memo             *CASMemo
	digestA, digestB murmur3.Digest
}

// verify runs the kernel body on one chunk pair, appending the absolute
// indices of the elements that differ by more than ε to dst. On error dst
// comes back unextended.
func (j *chunkJob) verify(dst []int64) ([]int64, chunkVerdict, error) {
	if j.a == nil || j.b == nil {
		return dst, chunkUnverified, nil
	}
	n0 := len(dst)
	dst, _, err := j.hasher.CompareSlices(dst, j.a, j.b)
	if err != nil {
		return dst[:n0], chunkPending, err
	}
	found := dst[n0:]
	if j.memo != nil {
		j.memo.insert(j.digestA, j.digestB, j.hasher.DType(), found)
	}
	if len(found) == 0 {
		return dst, chunkClean, nil
	}
	for k := range found {
		found[k] += j.base
	}
	return dst, chunkChanged, nil
}

// verdictSlot is one chunk job's outcome: its verdict and where its
// indices sit in its range's scratch.
type verdictSlot struct {
	verdict chunkVerdict
	r       int32
	lo, hi  int
}

// rangeScratch is what one kernel range owns: its index scratch and its
// re-read tally. Jobs of one range run sequentially, so neither is locked.
type rangeScratch struct {
	idx        []int64
	rereadCost pfs.Cost
}

// verdicts is the kernel's result store for one batch of chunk jobs: a
// slot per job and a scratch per range, written concurrently by the
// ranges (distinct jobs, distinct ranges) and read back serially in job
// order after the join — so diffs, counts and their order are the same at
// any worker count. A store is scratch: it is checked out of kernelFree
// for one stage-2 run and goes back once drain has copied what it found
// into the folds, so nothing that leaves the comparison may alias it.
type verdicts struct {
	slots  []verdictSlot
	ranges []rangeScratch
	need   []int // drain's index count per (pair, field)
}

// verdictSlotBytes is the in-memory size of one verdictSlot, for the free
// list's byte bound: verdict and r in one 8-byte word, lo and hi a word each.
const verdictSlotBytes = 8 + 2*bits.UintSize/8

// The kernel-scratch free list keeps at most kernelFreeStores stores, none
// larger than kernelStoreMax bytes (a larger one — a comparison reporting
// more than a quarter of a million divergent elements — is dropped for the
// collector and regrown by the next comparison that needs it): at most
// 64 MiB for the process, in practice the comparisons in flight at once
// times what a typical one reports.
const (
	kernelFreeStores = 32
	kernelStoreMax   = 2 << 20
)

// kernelFree recycles verdict stores across comparisons and across the
// work units of a sharded one. It lives for the process, like the
// default ring's arena, and takes back only what its bound allows, like an
// arena's Put.
var kernelFree struct {
	sync.Mutex
	stores []*verdicts
}

// getVerdicts checks a store out of the free list (a new one when it is
// empty), sized by reset.
func getVerdicts(jobs, maxRanges int) *verdicts {
	kernelFree.Lock()
	var v *verdicts
	if last := len(kernelFree.stores) - 1; last >= 0 {
		v, kernelFree.stores[last] = kernelFree.stores[last], nil
		kernelFree.stores = kernelFree.stores[:last]
	}
	kernelFree.Unlock()
	if v == nil {
		v = &verdicts{}
	}
	v.reset(jobs, maxRanges)
	return v
}

// putVerdicts returns a store to the free list, or drops it when the list
// is full or the store is over the size the list keeps.
func putVerdicts(v *verdicts) {
	bytes := verdictSlotBytes*cap(v.slots) + 8*cap(v.need)
	for r := range v.ranges {
		bytes += 8 * cap(v.ranges[r].idx)
	}
	kernelFree.Lock()
	if bytes <= kernelStoreMax && len(kernelFree.stores) < kernelFreeStores {
		kernelFree.stores = append(kernelFree.stores, v)
	}
	kernelFree.Unlock()
}

// reset sizes the store for a batch of jobs over at most maxRanges
// ranges, keeping every backing array and nothing a previous batch wrote.
func (v *verdicts) reset(jobs, maxRanges int) {
	v.slots = slices.Grow(v.slots[:0], jobs)[:jobs]
	clear(v.slots)
	if len(v.ranges) < maxRanges {
		v.ranges = append(v.ranges, make([]rangeScratch, maxRanges-len(v.ranges))...)
	}
	for r := range v.ranges {
		v.ranges[r] = rangeScratch{idx: v.ranges[r].idx[:0]}
	}
}

// counts returns n zeroed counters from the store's scratch.
func (v *verdicts) counts(n int) []int {
	v.need = slices.Grow(v.need[:0], n)[:n]
	clear(v.need)
	return v.need
}

// verify runs job i in range r and files its outcome.
func (v *verdicts) verify(r, i int, job *chunkJob) error {
	sc := &v.ranges[r]
	lo := len(sc.idx)
	idx, verdict, err := job.verify(sc.idx)
	sc.idx = idx
	if err != nil {
		return err
	}
	v.slots[i] = verdictSlot{verdict: verdict, r: int32(r), lo: lo, hi: len(idx)}
	return nil
}

// indices returns job i's divergent element indices (valid until reset).
func (v *verdicts) indices(i int) []int64 {
	s := v.slots[i]
	return v.ranges[s.r].idx[s.lo:s.hi]
}

// chargeRereads drains the ranges' integrity re-read tallies, prices them
// into the plan's account, and returns their virtual time for the plan clock.
func (v *verdicts) chargeRereads(store *pfs.Store, to *Account) time.Duration {
	var cost pfs.Cost
	for r := range v.ranges {
		cost.Add(v.ranges[r].rereadCost)
		v.ranges[r].rereadCost = pfs.Cost{}
	}
	if cost == (pfs.Cost{}) {
		return 0
	}
	to.BytesRead += cost.TotalBytes()
	d := store.Model().SerialReadTime(cost, store.Sharers())
	to.Breakdown.AddVirtual(metrics.PhaseRead, d)
	return d
}

// sortIndices restores ascending order. Verified chunks arrive in chunk
// order, so this is a scan; only memo replays interleaved with verified
// chunks ever need the sort.
func sortIndices(idx []int64) {
	if !slices.IsSorted(idx) {
		slices.Sort(idx)
	}
}
