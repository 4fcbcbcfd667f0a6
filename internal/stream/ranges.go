package stream

import "repro/internal/device"

// rangesPerWorker oversubscribes the executor so that ranges of unequal
// cost (an integrity re-read, a chunk full of divergences) still balance:
// a worker that finishes early claims another range.
const rangesPerWorker = 4

// minRangeBytes is the least work (bytes per side) worth a range of its
// own: below it, waking a worker costs more than comparing the bytes.
const minRangeBytes = 64 << 10

// MaxRanges is the most ranges one verification batch is split into on
// exec: the size per-range scratch must have. Serial executors (and nil)
// get one range and no dispatch at all.
func MaxRanges(exec device.Executor) int {
	if exec == nil || exec.Workers() <= 1 {
		return 1
	}
	return exec.Workers() * rangesPerWorker
}

// Ranges splits n work items into contiguous ranges of about equal bytes,
// length(i) being item i's bytes per side: at most maxRanges of them and
// as few as keep each near minRangeBytes or more. It returns the cut
// points appended to bounds[:0] — range r is items [bounds[r],
// bounds[r+1]) — always at least one range, never an empty one.
func Ranges(bounds []int, n int, length func(i int) int, maxRanges int) []int {
	var total int64
	for i := 0; i < n; i++ {
		total += int64(length(i))
	}
	nr := int(min(int64(maxRanges), int64(n), total/minRangeBytes))
	nr = max(nr, 1)
	bounds = append(bounds[:0], 0)
	var acc int64
	for i := 0; i < n && len(bounds) < nr; i++ {
		acc += int64(length(i))
		// Cut after item i once the ranges so far hold their share.
		if acc*int64(nr) >= total*int64(len(bounds)) && i+1 < n {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, n)
}
