// Package mpi provides the in-process message-passing substrate that
// stands in for MPI in the multi-rank simulation runs of the evaluation
// (the paper's HACC runs span up to 128 nodes × 4 ranks; see DESIGN.md
// §2). Ranks are goroutines connected by buffered point-to-point channels
// with tagged matching, plus the small set of collectives the simulation
// needs: barrier, all-reduce, all-gather and broadcast.
//
// The communicator is deliberately deterministic: point-to-point delivery
// between a pair of ranks is FIFO per tag, and all collectives produce
// rank-order-deterministic results, so a parallel simulation can be made
// bitwise reproducible when its local computation is.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInvalidRank is returned for out-of-range rank arguments.
var ErrInvalidRank = errors.New("mpi: invalid rank")

// message is one tagged point-to-point payload.
type message struct {
	tag  int
	data []byte
}

// Comm is a communicator connecting size ranks.
type Comm struct {
	size int
	// links[src][dst] carries messages from src to dst.
	links [][]chan message
	// pending[dst][src] holds messages received out of tag order.
	pending []map[int][]message
	mu      []sync.Mutex

	barrier *barrier
}

// NewComm creates a communicator for size ranks.
func NewComm(size int) (*Comm, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: communicator size %d must be positive", size)
	}
	c := &Comm{
		size:    size,
		links:   make([][]chan message, size),
		pending: make([]map[int][]message, size),
		mu:      make([]sync.Mutex, size),
		barrier: newBarrier(size),
	}
	for src := 0; src < size; src++ {
		c.links[src] = make([]chan message, size)
		for dst := 0; dst < size; dst++ {
			// Generous buffering keeps lockstep neighbour exchanges from
			// deadlocking without a rendezvous protocol.
			c.links[src][dst] = make(chan message, 64)
		}
		c.pending[src] = make(map[int][]message)
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Rank returns the handle for one rank.
func (c *Comm) Rank(r int) (*Rank, error) {
	if r < 0 || r >= c.size {
		return nil, fmt.Errorf("%w: %d of %d", ErrInvalidRank, r, c.size)
	}
	return &Rank{comm: c, rank: r}, nil
}

// Rank is one process's endpoint. Each Rank must be used by only one
// goroutine.
type Rank struct {
	comm *Comm
	rank int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// Send delivers data to rank `to` with a tag. It copies the payload, so
// the caller may reuse the buffer. Send does not block (channel buffering
// plus FIFO semantics stand in for MPI's eager protocol); it fails only on
// an invalid destination.
func (r *Rank) Send(to, tag int, data []byte) error {
	if to < 0 || to >= r.comm.size {
		return fmt.Errorf("%w: send to %d", ErrInvalidRank, to)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.comm.links[r.rank][to] <- message{tag: tag, data: cp}
	return nil
}

// Recv blocks until a message with the tag arrives from rank `from`.
// Messages from the same sender with other tags are queued, preserving
// per-tag FIFO order.
func (r *Rank) Recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= r.comm.size {
		return nil, fmt.Errorf("%w: recv from %d", ErrInvalidRank, from)
	}
	me := r.rank
	// Check messages parked by earlier mismatched receives.
	r.comm.mu[me].Lock()
	key := from*1_000_003 + tag
	if q := r.comm.pending[me][key]; len(q) > 0 {
		m := q[0]
		r.comm.pending[me][key] = q[1:]
		r.comm.mu[me].Unlock()
		return m.data, nil
	}
	r.comm.mu[me].Unlock()

	for {
		m := <-r.comm.links[from][me]
		if m.tag == tag {
			return m.data, nil
		}
		r.comm.mu[me].Lock()
		k := from*1_000_003 + m.tag
		r.comm.pending[me][k] = append(r.comm.pending[me][k], m)
		r.comm.mu[me].Unlock()
	}
}

// Sendrecv exchanges payloads with a partner rank in one step, the
// halo-exchange primitive.
func (r *Rank) Sendrecv(partner, tag int, send []byte) ([]byte, error) {
	if partner == r.rank {
		cp := make([]byte, len(send))
		copy(cp, send)
		return cp, nil
	}
	if err := r.Send(partner, tag, send); err != nil {
		return nil, err
	}
	return r.Recv(partner, tag)
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() { r.comm.barrier.await() }

// reduceTag is the collective tag space (separate from user tags by
// convention: collectives use negative tags).
const (
	tagReduce = -1
	tagBcast  = -2
	tagGather = -3
)

// AllReduceSum sums float64 vectors across all ranks; every rank receives
// the identical, rank-0-ordered result (deterministic accumulation order).
func (r *Rank) AllReduceSum(vals []float64) ([]float64, error) {
	if r.comm.size == 1 {
		out := make([]float64, len(vals))
		copy(out, vals)
		return out, nil
	}
	if r.rank == 0 {
		sum := make([]float64, len(vals))
		copy(sum, vals)
		// Deterministic order: accumulate ranks 1..n-1 in sequence.
		for src := 1; src < r.comm.size; src++ {
			data, err := r.Recv(src, tagReduce)
			if err != nil {
				return nil, err
			}
			vec, err := decodeF64(data)
			if err != nil {
				return nil, err
			}
			if len(vec) != len(sum) {
				return nil, fmt.Errorf("mpi: allreduce length mismatch from rank %d: %d != %d",
					src, len(vec), len(sum))
			}
			for i := range sum {
				sum[i] += vec[i]
			}
		}
		enc := encodeF64(sum)
		for dst := 1; dst < r.comm.size; dst++ {
			if err := r.Send(dst, tagBcast, enc); err != nil {
				return nil, err
			}
		}
		return sum, nil
	}
	if err := r.Send(0, tagReduce, encodeF64(vals)); err != nil {
		return nil, err
	}
	data, err := r.Recv(0, tagBcast)
	if err != nil {
		return nil, err
	}
	return decodeF64(data)
}

// AllGather concatenates every rank's payload in rank order; every rank
// receives the identical [][]byte.
func (r *Rank) AllGather(data []byte) ([][]byte, error) {
	if r.comm.size == 1 {
		cp := make([]byte, len(data))
		copy(cp, data)
		return [][]byte{cp}, nil
	}
	if r.rank == 0 {
		parts := make([][]byte, r.comm.size)
		cp := make([]byte, len(data))
		copy(cp, data)
		parts[0] = cp
		for src := 1; src < r.comm.size; src++ {
			d, err := r.Recv(src, tagGather)
			if err != nil {
				return nil, err
			}
			parts[src] = d
		}
		enc := encodeParts(parts)
		for dst := 1; dst < r.comm.size; dst++ {
			if err := r.Send(dst, tagBcast, enc); err != nil {
				return nil, err
			}
		}
		return parts, nil
	}
	if err := r.Send(0, tagGather, data); err != nil {
		return nil, err
	}
	enc, err := r.Recv(0, tagBcast)
	if err != nil {
		return nil, err
	}
	return decodeParts(enc)
}

// Run spawns fn on every rank of a fresh communicator and waits for all
// of them, returning the first error.
func Run(size int, fn func(r *Rank) error) error {
	comm, err := NewComm(size)
	if err != nil {
		return err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < size; i++ {
		rank, err := comm.Rank(i)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(rk *Rank) {
			defer wg.Done()
			if err := fn(rk); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("mpi: rank %d: %w", rk.ID(), err)
				}
				mu.Unlock()
			}
		}(rank)
	}
	wg.Wait()
	return firstErr
}

// barrier is a reusable N-party barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	phase int
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.size {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
}
