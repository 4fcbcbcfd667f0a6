package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/pfs"
)

// Checkpointer captures checkpoints through two storage tiers, the VELOC
// pattern the paper relies on (§1, §3.3.1): the checkpoint is written
// synchronously to fast node-local storage, then flushed to the PFS in the
// background while the application continues. Close (or Flush) must be
// called to guarantee durability on the PFS tier.
type Checkpointer struct {
	local  *pfs.Store
	remote *pfs.Store

	jobs chan flushJob
	wg   sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	flushErr error
	inFlight sync.WaitGroup

	// cost accounting (virtual)
	localCost  pfs.Cost
	remoteCost pfs.Cost
}

type flushJob struct {
	name string
}

// NewCheckpointer starts a checkpointer with the given number of background
// flush workers (minimum 1).
func NewCheckpointer(local, remote *pfs.Store, flushWorkers int) *Checkpointer {
	if flushWorkers < 1 {
		flushWorkers = 1
	}
	c := &Checkpointer{
		local:  local,
		remote: remote,
		jobs:   make(chan flushJob, flushWorkers),
	}
	c.wg.Add(flushWorkers)
	for i := 0; i < flushWorkers; i++ {
		// The flusher pool is joined by Checkpointer.Close via c.wg.Wait.
		go c.flusher()
	}
	return c
}

func (c *Checkpointer) flusher() {
	defer c.wg.Done()
	for job := range c.jobs {
		err := c.flushOne(job.name)
		if err != nil {
			c.mu.Lock()
			if c.flushErr == nil {
				c.flushErr = err
			}
			c.mu.Unlock()
		}
		c.inFlight.Done()
	}
}

// flushOne copies one checkpoint from the local tier to the remote tier.
// The background flusher has no caller-scoped lifetime to inherit — its
// cancellation point is the jobs channel closing in Close, not a context.
func (c *Checkpointer) flushOne(name string) error {
	data, cost, err := c.local.ReadFileFull(context.Background(), name, 4<<20)
	if err != nil {
		return fmt.Errorf("flush %s: read local: %w", name, err)
	}
	c.mu.Lock()
	c.localCost.Add(cost)
	c.mu.Unlock()

	w, err := c.remote.Create(name)
	if err != nil {
		return fmt.Errorf("flush %s: %w", name, err)
	}
	// Partial cost on every path: a failed flush still moved bytes (a torn
	// write persists a prefix), and dropping them would skew the capture
	// bench deltas under fault injection.
	defer func() {
		c.mu.Lock()
		c.remoteCost.Add(w.Cost())
		c.mu.Unlock()
	}()
	if _, err := w.Write(data); err != nil {
		_ = w.Close() // the write error takes precedence
		return fmt.Errorf("flush %s: %w", name, err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("flush %s: %w", name, err)
	}
	return nil
}

// Capture writes the checkpoint to the local tier and schedules its
// background flush to the PFS tier. It returns once the local write is
// durable, so the application can continue immediately.
func (c *Checkpointer) Capture(meta Meta, data [][]byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("ckpt: checkpointer closed")
	}
	c.inFlight.Add(1)
	c.mu.Unlock()

	// The local write cost counts on every path, a failed encode or close
	// included: WriteCheckpoint's is partial but truthful.
	cost, err := WriteCheckpoint(c.local, meta, data)
	c.mu.Lock()
	c.localCost.Add(cost)
	c.mu.Unlock()
	if err != nil {
		c.inFlight.Done()
		return err
	}

	c.jobs <- flushJob{name: Name(meta.RunID, meta.Iteration, meta.Rank)}
	return nil
}

// Flush blocks until every scheduled background flush has completed and
// returns the first flush error, if any.
func (c *Checkpointer) Flush() error {
	c.inFlight.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushErr
}

// Costs returns the accumulated virtual write costs on the two tiers.
func (c *Checkpointer) Costs() (local, remote pfs.Cost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localCost, c.remoteCost
}

// Close flushes outstanding work and stops the background workers.
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	err := c.Flush()
	close(c.jobs)
	c.wg.Wait()
	return err
}

// WriteCheckpoint is the synchronous single-tier convenience used by tools
// and tests: encode directly onto one store, into a temporary reserved at
// the file's size (pfs.Writer.Reserve) that Close publishes. A checkpoint
// Encode would refuse is refused before anything is created. On error the
// returned cost covers the writes that did complete before the failure (a
// torn write's persisted prefix included) — partial but truthful, the same
// discipline as stream.Stats.Wall — so bench deltas stay honest under
// fault injection.
func WriteCheckpoint(store *pfs.Store, meta Meta, data [][]byte) (cost pfs.Cost, err error) {
	e, err := newEncoding(meta, data)
	if err != nil {
		return pfs.Cost{}, err
	}
	w, err := store.Create(Name(meta.RunID, meta.Iteration, meta.Rank))
	if err != nil {
		return pfs.Cost{}, err
	}
	defer func() { cost = w.Cost() }()
	w.Reserve(e.size())
	if _, err := e.writeTo(w); err != nil {
		_ = w.Close() // the encode error takes precedence
		return cost, err
	}
	return cost, w.Close()
}
