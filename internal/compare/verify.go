package compare

import (
	"slices"
	"time"

	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// This file is the stage-2 verification kernel: the one place a chunk
// pair is verified, shared by the pair planners (through the stream
// pipeline's consumer), the group planners (dispatched over the union
// buffers) and the shard workers (serially, per batch). The planners
// differ in where bytes come from and where verdicts go; what happens to
// one chunk pair — integrity rung, ε-compare, memo insert — is here.

// Sides of a chunk pair.
const (
	SideA = 0
	SideB = 1
)

// ChunkVerdict is the kernel's verdict on one chunk pair.
type ChunkVerdict uint8

// Chunk verdicts. The zero value marks a pair the kernel never reached
// (a failed or canceled stream).
const (
	ChunkPending ChunkVerdict = iota
	// ChunkClean: verified, every element within ε.
	ChunkClean
	// ChunkChanged: verified, at least one element beyond ε.
	ChunkChanged
	// ChunkUnverified: a side failed leaf-hash integrity verification, so
	// the pair was excluded from diffing — untrusted bytes must produce
	// neither a false divergence nor a false match.
	ChunkUnverified
)

// LeafChecker is the integrity rung of the degradation ladder as the
// kernel sees it. The planner knows which leaf a chunk's bytes must
// re-hash to and where to re-read them from; VerifyLeaf does the work.
type LeafChecker interface {
	// CheckedSide returns the bytes to compare for one side of chunk job i
	// — data itself, or a re-read copy — or nil when the side remains
	// unverifiable. r is the kernel range the job runs in: the planner
	// tallies re-read costs per range, so ranges share no counter.
	CheckedSide(r, i, side int, data []byte) []byte
}

// VerifyLeaf is the integrity rung for one chunk side: the streamed bytes
// must re-hash to the leaf their metadata was built from — corruption
// beyond ε quantization (bit rot, a torn transfer) cannot masquerade as a
// clean chunk. On mismatch the chunk is re-read once from f at off into a
// fresh buffer (an in-flight flip re-reads clean; media corruption
// repeats). It returns the verified bytes — data itself or the re-read
// copy — or nil; reread reports whether the re-read was issued, cost what
// it cost.
func VerifyLeaf(h *errbound.Hasher, data []byte, want murmur3.Digest, f *pfs.File, off int64) (verified []byte, reread bool, cost pfs.Cost) {
	if got, err := h.HashChunk(data); err == nil && got == want {
		return data, false, pfs.Cost{}
	}
	buf := make([]byte, len(data))
	n, cost, err := f.ReadAt(buf, off)
	if err != nil || n != len(buf) {
		return nil, true, cost
	}
	if got, herr := h.HashChunk(buf); herr == nil && got == want {
		return buf, true, cost
	}
	return nil, true, cost
}

// ChunkJob is one chunk pair handed to the kernel.
type ChunkJob struct {
	Hasher *errbound.Hasher
	A, B   []byte
	// Base is the element index, within the field, of the chunk's first
	// element: reported indices are field-absolute.
	Base int64
	// Leaves, when set, runs the integrity rung on both sides first
	// (Options.Degrade); R and I are passed through to it.
	Leaves LeafChecker
	R, I   int
	// Memo, when set, records the verdict under the digest pair. Sound
	// only in differential mode: both byte strings are CAS
	// representatives, so one digest names exactly one stored byte string
	// and the verdict is a pure function of the (full) digest pair.
	Memo             *CASMemo
	DigestA, DigestB murmur3.Digest
}

// Verify runs the kernel body on one chunk pair, appending the absolute
// indices of the elements that differ by more than ε to dst. On error dst
// comes back unextended.
func (j *ChunkJob) Verify(dst []int64) ([]int64, ChunkVerdict, error) {
	a, b := j.A, j.B
	if j.Leaves != nil {
		a = j.Leaves.CheckedSide(j.R, j.I, SideA, a)
		b = j.Leaves.CheckedSide(j.R, j.I, SideB, b)
		if a == nil || b == nil {
			return dst, ChunkUnverified, nil
		}
	}
	n0 := len(dst)
	dst, _, err := j.Hasher.CompareSlices(dst, a, b)
	if err != nil {
		return dst[:n0], ChunkPending, err
	}
	found := dst[n0:]
	if j.Memo != nil {
		j.Memo.insert(j.DigestA, j.DigestB, j.Hasher.DType(), found)
	}
	if len(found) == 0 {
		return dst, ChunkClean, nil
	}
	for k := range found {
		found[k] += j.Base
	}
	return dst, ChunkChanged, nil
}

// verdictSlot is one chunk job's outcome: its verdict and where its
// indices sit in its range's scratch.
type verdictSlot struct {
	verdict ChunkVerdict
	r       int32
	lo, hi  int
}

// rangeScratch is what one kernel range owns: its index scratch, its
// re-read tally, and whether a job in it failed. Jobs of one range run
// sequentially, so none of it is locked.
type rangeScratch struct {
	idx        []int64
	rereadCost pfs.Cost
	failed     bool
}

// verdicts is the kernel's result store for one batch of chunk jobs: a
// slot per job and a scratch per range, written concurrently by the
// ranges (distinct jobs, distinct ranges) and read back serially in job
// order after the join — so diffs, counts and their order are the same at
// any worker count.
type verdicts struct {
	slots  []verdictSlot
	ranges []rangeScratch
}

// reset sizes the store for a batch of jobs over at most maxRanges
// ranges, keeping every backing array.
func (v *verdicts) reset(jobs, maxRanges int) {
	v.slots = slices.Grow(v.slots[:0], jobs)[:jobs]
	clear(v.slots)
	if len(v.ranges) < maxRanges {
		v.ranges = append(v.ranges, make([]rangeScratch, maxRanges-len(v.ranges))...)
	}
	for r := range v.ranges {
		v.ranges[r].idx = v.ranges[r].idx[:0]
		v.ranges[r].failed = false
	}
}

// verify runs job i in range r and files its outcome.
func (v *verdicts) verify(r, i int, job *ChunkJob) error {
	sc := &v.ranges[r]
	lo := len(sc.idx)
	idx, verdict, err := job.Verify(sc.idx)
	sc.idx = idx
	if err != nil {
		sc.failed = true
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

// failed reports whether any job returned an error.
func (v *verdicts) failed() bool {
	for r := range v.ranges {
		if v.ranges[r].failed {
			return true
		}
	}
	return false
}

// chargeRereads drains the ranges' integrity re-read tallies, prices them
// into the plan's sink, and returns their virtual time for the plan clock.
func (v *verdicts) chargeRereads(store *pfs.Store, to sink) time.Duration {
	var cost pfs.Cost
	for r := range v.ranges {
		cost.Add(v.ranges[r].rereadCost)
		v.ranges[r].rereadCost = pfs.Cost{}
	}
	if cost == (pfs.Cost{}) {
		return 0
	}
	*to.bytesRead += cost.TotalBytes()
	d := store.Model().SerialReadTime(cost, store.Sharers())
	to.breakdown.AddVirtual(metrics.PhaseRead, d)
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

// mergeSorted appends to dst the union of ascending integer lists,
// ascending and without duplicates. It consumes the lists slice (the
// element slices are re-sliced, their arrays untouched).
func mergeSorted(dst []int, lists [][]int) []int {
	if len(lists) == 1 {
		return append(dst, lists[0]...)
	}
	for {
		least, found := 0, false
		for _, l := range lists {
			if len(l) > 0 && (!found || l[0] < least) {
				least, found = l[0], true
			}
		}
		if !found {
			return dst
		}
		dst = append(dst, least)
		for k, l := range lists {
			if len(l) > 0 && l[0] == least {
				lists[k] = l[1:]
			}
		}
	}
}
