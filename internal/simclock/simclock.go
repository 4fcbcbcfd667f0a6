// Package simclock provides the analytic virtual clock that prices I/O and
// compute so laptop-scale runs reproduce the performance *shape* of the
// paper's Polaris/Lustre environment (see DESIGN.md §2).
//
// The model is deliberately simple and fully deterministic. This package
// holds its one shared term, BandwidthTime (bytes/bandwidth); the prices
// built on the model live where their inputs are:
//
//   - pfs.CostModel.SerialReadTime: synchronous reads serialize their
//     latencies, elapsed = n·L + bytes/bw — every whole-file read, and the
//     shape of the mmap page-fault backend's price.
//   - aio's priceOverlapped: a batch of n asynchronous reads with queue
//     depth q pays its latency rounds on top of the transfer rather than
//     under it, elapsed = ceil(n/q)·L + bytes/bw + L (the io_uring
//     backend's price).
//   - stream.VirtualPipeline: the depth-N recurrence of stage 2's
//     overlapped I/O and compute.
//
// The metrics package accumulates the spans into breakdown timers.
package simclock

import "time"

// BandwidthTime returns bytes/bandwidth as a duration. Non-positive inputs
// cost zero.
func BandwidthTime(bytes int64, bytesPerSec float64) time.Duration {
	if bytes <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bytesPerSec * float64(time.Second))
}
