// Package simclock provides the analytic virtual clock that prices I/O and
// compute so laptop-scale runs reproduce the performance *shape* of the
// paper's Polaris/Lustre environment (see DESIGN.md §2).
//
// The model is deliberately simple and fully deterministic:
//
//   - An operation on a bandwidth resource costs latency + bytes/bandwidth.
//   - A batch of n asynchronous operations with queue depth q overlaps
//     latencies: elapsed = max(ceil(n/q)·L, bytes/bw) + L. This is the
//     io_uring backend's cost.
//   - A batch of n synchronous operations serializes latencies:
//     elapsed = n·L + bytes/bw. This is the mmap page-fault backend's cost.
//   - Pipelined stages overlap: a loop of S slices across stages with
//     per-slice stage times t_1..t_k costs ≈ S·max(t_i) + (Σt_i − max t_i)
//     (steady state bound by the slowest stage, plus pipeline fill).
//
// All helpers return time.Duration virtual spans; accumulation into
// breakdown timers is the metrics package's job.
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

// OverlappedIO prices a batch of n reads issued asynchronously with the
// given queue depth: per-op latencies overlap up to the queue depth, and
// the transfer is bandwidth-bound once the pipe is full.
func OverlappedIO(n int, latency time.Duration, queueDepth int, bytes int64, bytesPerSec float64) time.Duration {
	if n <= 0 {
		return 0
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	rounds := (n + queueDepth - 1) / queueDepth
	latTerm := time.Duration(rounds) * latency
	bwTerm := BandwidthTime(bytes, bytesPerSec)
	if bwTerm > latTerm {
		latTerm = bwTerm
	}
	return latTerm + latency // +L: the final completion still pays one latency
}

// SerialIO prices a batch of n reads issued synchronously one after
// another (the mmap page-fault pattern): every operation pays its full
// latency, plus the bandwidth term.
func SerialIO(n int, latency time.Duration, bytes int64, bytesPerSec float64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(n)*latency + BandwidthTime(bytes, bytesPerSec)
}

// Pipeline prices S slices flowing through k overlapped stages whose
// per-slice costs are stageTimes. Steady-state throughput is bound by the
// slowest stage; the remaining stages contribute only the pipeline fill.
func Pipeline(slices int, stageTimes ...time.Duration) time.Duration {
	if slices <= 0 || len(stageTimes) == 0 {
		return 0
	}
	var maxStage, sum time.Duration
	for _, t := range stageTimes {
		sum += t
		if t > maxStage {
			maxStage = t
		}
	}
	return time.Duration(slices)*maxStage + (sum - maxStage)
}

// Contended scales a duration's bandwidth component for a resource shared
// by `sharers` concurrent users: the latency part is unaffected, so the
// caller passes the two components separately.
func Contended(latencyPart, bandwidthPart time.Duration, sharers int) time.Duration {
	if sharers < 1 {
		sharers = 1
	}
	return latencyPart + time.Duration(int64(bandwidthPart)*int64(sharers))
}
