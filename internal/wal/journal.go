package wal

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/framelog"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// ErrTampered reports a journal whose hash chain is broken: a record
// that frames and checksums correctly but does not decode, or does not
// chain from its predecessor. A crash cannot produce this — crash damage
// fails the CRC and is skipped as a hole, and the next valid record still
// chains from the last one before the hole — so a broken chain means a
// record was altered or removed after it was written.
var ErrTampered = errors.New("wal: hash chain broken")

// ErrWedged reports an append on a journal that has already failed an
// append: after any write error the journal refuses further records, so
// the in-memory chain and the on-disk chain cannot silently diverge
// within one process life. Recovery is a restart (reopen and replay).
var ErrWedged = errors.New("wal: journal wedged after append failure")

// Replay is what Open recovered from an existing journal.
type Replay struct {
	// Records is the valid chain, in order.
	Records []Record
	// Damage is what the walk skipped: Holes mid-log, TornTailBytes after
	// the last valid record (a dropped final record is visible there).
	framelog.Damage
	// Cost is the replay's storage read cost.
	Cost pfs.Cost
}

// Journal is the chaining writer over one store-backed log. All appends
// go through one store Append writer, held from the first Append until
// Close, so journal writes are priced on the virtual clock and visible to
// fault injection like every other storage operation. A record is durable
// against kill -9 once its write returns; nothing is synced. Safe for
// concurrent use.
type Journal struct {
	mu     sync.Mutex
	log    framelog.Log
	seq    uint64
	head   murmur3.Digest
	cost   pfs.Cost
	wedged error
}

// Open replays the named journal (creating the state for an empty one
// when the file does not exist) and returns a writer positioned at the
// chain head. Damage is classified, not ignored: torn frames are
// skipped as holes or a torn tail, but a record that breaks the hash
// chain fails with ErrTampered — a tampered journal refuses to open.
func Open(ctx context.Context, fsys *pfs.Store, name string) (*Journal, *Replay, error) {
	log, rep, err := replay(ctx, fsys, name, "open")
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{log: log}
	if n := len(rep.Records); n > 0 {
		j.seq = rep.Records[n-1].Seq
		j.head = rep.Records[n-1].Digest
	}
	return j, rep, nil
}

// replay reads the named journal (absent is empty) and walks it into the
// valid record chain, returning the log positioned for the next append.
// Damage is framelog's to skip and count; what is checked here is the
// chain: every framed record must decode, carry the next Seq and a Prev
// equal to its predecessor's Digest, and one that does not is ErrTampered.
func replay(ctx context.Context, fsys *pfs.Store, name, op string) (framelog.Log, *Replay, error) {
	if name == "" {
		name = DefaultName
	}
	log := framelog.Log{Store: fsys, Name: name, Magic: frameMagic}
	raw, cost, err := log.Read(ctx)
	if err != nil {
		return log, nil, fmt.Errorf("wal: %s %s: %w", op, name, err)
	}
	rep := &Replay{Cost: cost}
	var head murmur3.Digest
	var seq uint64
	rep.Damage, err = framelog.Replay(raw, frameMagic, func(off int64, payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("%w: record at offset %d does not decode: %v", ErrTampered, off, err)
		}
		if rec.Seq != seq+1 || rec.Prev != head {
			return fmt.Errorf("%w: record at offset %d has seq %d prev %x, want seq %d prev %x",
				ErrTampered, off, rec.Seq, rec.Prev, seq+1, head)
		}
		rep.Records = append(rep.Records, rec)
		seq, head = rec.Seq, rec.Digest
		return nil
	})
	if err != nil {
		return log, nil, err
	}
	return log, rep, nil
}

// Append assigns the record its chain coordinates (Seq, Prev, Digest),
// frames it, and writes it durably, returning the completed record.
// The caller must leave Seq, Prev, and Digest zero — hand-rolled chain
// fields are rejected here. On any write
// error the journal wedges: the record is not part of the chain, and
// every later Append fails until the journal is reopened. A record over
// the size replay accepts (framelog.ErrTooLarge) is refused before
// anything is written, so it fails alone and does not wedge.
func (j *Journal) Append(rec Record) (Record, error) {
	if rec.Seq != 0 || rec.Prev != (murmur3.Digest{}) || rec.Digest != (murmur3.Digest{}) {
		return Record{}, errors.New("wal: Seq/Prev/Digest are assigned by the journal, not the caller")
	}
	if rec.Type == 0 {
		return Record{}, errors.New("wal: record needs a type")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wedged != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrWedged, j.wedged)
	}
	rec.Seq = j.seq + 1
	rec.Prev = j.head
	payload := encodePayload(&rec)
	rec.Digest = payloadDigest(payload)
	cost, err := j.log.Append(payload)
	j.cost.Add(cost)
	if err != nil {
		if !errors.Is(err, framelog.ErrTooLarge) {
			j.wedged = err
		}
		return Record{}, fmt.Errorf("wal: append: %w", err)
	}
	j.seq = rec.Seq
	j.head = rec.Digest
	return rec, nil
}

// Close closes the held append writer and returns its error; a later
// Append reopens it. The owner closes the journal when it stops appending
// (a plane at its Close).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// Name returns the store-relative journal path.
func (j *Journal) Name() string { return j.log.Name }

// Seq returns the chain head's sequence number (0 for an empty chain).
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Head returns the chain head's digest.
func (j *Journal) Head() murmur3.Digest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// Size returns the journal's on-disk size in bytes, including holes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Size
}

// Cost returns the accumulated append cost of this journal handle.
func (j *Journal) Cost() pfs.Cost {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cost
}

// Wedged returns the append error that wedged the journal, or nil.
func (j *Journal) Wedged() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wedged
}

// VerifyReport is verify-log's summary of one full chain walk.
type VerifyReport struct {
	// Records is the valid chain length; Seq and Head are the chain
	// head's coordinates.
	Records int            `json:"records"`
	Seq     uint64         `json:"seq"`
	Head    murmur3.Digest `json:"head"`
	// Holes and TornTailBytes report crash damage that replay skipped.
	Holes         int   `json:"holes"`
	TornTailBytes int64 `json:"tornTailBytes"`
	// Accepted, Started, and Verdicts count records by type; Jobs
	// counts distinct accepted jobs.
	Accepted int `json:"accepted"`
	Started  int `json:"started"`
	Verdicts int `json:"verdicts"`
	Jobs     int `json:"jobs"`
	// PendingJobs lists accepted jobs with no verdict yet (unfinished
	// at the last shutdown — recovery's re-admission work list).
	PendingJobs []uint64 `json:"pendingJobs,omitempty"`
	// DuplicateVerdicts lists jobs with more than one verdict record —
	// always a verification failure (exactly-once broken).
	DuplicateVerdicts []uint64 `json:"duplicateVerdicts,omitempty"`
	// OrphanVerdicts lists verdicts whose job has no accepted record.
	OrphanVerdicts []uint64 `json:"orphanVerdicts,omitempty"`
}

// Verify re-walks the chain and cross-checks the job lifecycle:
// ErrTampered on a broken chain, an error listing the jobs on
// duplicated or orphaned verdicts. Pending jobs and crash holes are
// reported, not errors — they are what recovery is for.
func Verify(ctx context.Context, fsys *pfs.Store, name string) (*VerifyReport, error) {
	_, chain, err := replay(ctx, fsys, name, "verify")
	if err != nil {
		return nil, err
	}
	recs := chain.Records
	rep := &VerifyReport{Records: len(recs), Holes: chain.Holes, TornTailBytes: chain.TornTailBytes}
	if len(recs) > 0 {
		rep.Seq = recs[len(recs)-1].Seq
		rep.Head = recs[len(recs)-1].Digest
	}
	accepted := make(map[uint64]bool)
	verdicts := make(map[uint64]int)
	var order []uint64
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case TypeAccepted:
			rep.Accepted++
			if !accepted[r.Job] {
				accepted[r.Job] = true
				order = append(order, r.Job)
			}
		case TypeStarted:
			rep.Started++
		case TypeVerdict:
			rep.Verdicts++
			verdicts[r.Job]++
			if !accepted[r.Job] {
				rep.OrphanVerdicts = append(rep.OrphanVerdicts, r.Job)
			}
		}
	}
	rep.Jobs = len(accepted)
	for _, job := range order {
		switch n := verdicts[job]; {
		case n == 0:
			rep.PendingJobs = append(rep.PendingJobs, job)
		case n > 1:
			rep.DuplicateVerdicts = append(rep.DuplicateVerdicts, job)
		}
	}
	if len(rep.DuplicateVerdicts) > 0 {
		return rep, fmt.Errorf("wal: exactly-once broken: jobs %v have duplicate verdicts", rep.DuplicateVerdicts)
	}
	if len(rep.OrphanVerdicts) > 0 {
		return rep, fmt.Errorf("wal: jobs %v have verdicts but no accepted record", rep.OrphanVerdicts)
	}
	return rep, nil
}

// Recovered classifies a replayed chain for exactly-once recovery.
type Recovered struct {
	// Pending lists accepted records whose jobs have no verdict, in
	// acceptance order — the jobs to re-admit.
	Pending []Record
	// Verdicts maps completed jobs to their verdict record — served
	// from this ledger, never recomputed.
	Verdicts map[uint64]Record
	// MaxJob is the highest job ID seen; new IDs must start above it.
	MaxJob uint64
}

// Classify splits a replayed chain into completed and unfinished jobs.
func Classify(recs []Record) Recovered {
	out := Recovered{Verdicts: make(map[uint64]Record)}
	var acceptedOrder []Record
	for i := range recs {
		r := recs[i]
		if r.Job > out.MaxJob {
			out.MaxJob = r.Job
		}
		switch r.Type {
		case TypeAccepted:
			acceptedOrder = append(acceptedOrder, r)
		case TypeVerdict:
			out.Verdicts[r.Job] = r
		}
	}
	for _, r := range acceptedOrder {
		if _, done := out.Verdicts[r.Job]; !done {
			out.Pending = append(out.Pending, r)
		}
	}
	return out
}
