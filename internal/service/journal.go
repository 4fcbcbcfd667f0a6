package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/compare"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/shard"
	"repro/internal/wal"
)

// This file binds the crash-durable journal (internal/wal) into the job
// lifecycle. The discipline is durable-then-visible at both ends:
//
//   - the accepted record is appended before Submit returns, so a job
//     the client saw accepted is never lost by a crash;
//   - the verdict record is appended before the verdict is published,
//     so a verdict the client observed is always servable from the
//     ledger after a restart — never recomputed, never duplicated.
//
// A journal-append failure on the verdict path fails the job for THIS
// life only (the client sees an error verdict); the ledger still lists
// the job as pending, so the next life re-admits and re-runs it,
// producing the job's one and only durable verdict.

// acceptedRecord journals one admission. The spec's normalized ε, chunk
// size, and degradation setting are bound so recovery re-runs the job at
// exactly the coordinates the client was promised.
func acceptedRecord(id uint64, tenantID string, spec JobSpec) wal.Record {
	rec := wal.Record{
		Type:        wal.TypeAccepted,
		Job:         id,
		Tenant:      tenantID,
		Kind:        string(spec.Kind),
		Names:       spec.names(),
		Degrade:     spec.Options.Degrade,
		Epsilon:     spec.Options.Epsilon,
		ChunkSize:   spec.Options.ChunkSize,
		ToolVersion: wal.ToolVersion,
	}
	if spec.Kind == JobGroup {
		rec.Topology = spec.Topology.String()
	}
	if spec.Kind == JobShard {
		rec.Workers = spec.Shard.Workers
	}
	return rec
}

// startedRecord journals a job acquiring its execution slot.
func startedRecord(id uint64, tenantID string, spec JobSpec) wal.Record {
	rec := acceptedRecord(id, tenantID, spec)
	rec.Type = wal.TypeStarted
	return rec
}

// verdictRecord journals a job's outcome: the exit code, the verdict and
// degradation-ladder counts of its account (LedgerJob is the inverse),
// and the compared snapshots' combined Merkle roots — everything
// verify-log needs to recompute the verdict's inputs. The record's
// RingFallbacks slot stays 0.
func verdictRecord(id uint64, tenantID string, spec JobSpec, o outcome,
	res *compare.Result, rep *compare.GroupReport) wal.Record {
	rec := acceptedRecord(id, tenantID, spec)
	rec.Type = wal.TypeVerdict
	rec.Exit = o.verdict().ExitCode()
	if o.err != nil {
		rec.ErrMsg = o.err.Error()
	}
	if a := accountOf(res, rep); a != nil {
		rec.DiffCount, rec.Degraded = a.DiffCount, a.Inconclusive()
		rec.UnverifiedChunks, rec.ReadRetries, rec.CASPruned = a.UnverifiedChunks, a.ReadRetries, a.CASPrunedChunks
	}
	switch {
	case res != nil && (res.RootA != (murmur3.Digest{}) || res.RootB != (murmur3.Digest{})):
		rec.Roots = []murmur3.Digest{res.RootA, res.RootB}
	case rep != nil:
		rec.Roots = append([]murmur3.Digest(nil), rep.MemberRoots...)
	}
	return rec
}

// specFromRecord reconstructs a runnable spec from an accepted record —
// the recovery inverse of acceptedRecord. The rebuilt options carry only
// the journaled coordinates (ε, chunk size, degrade); plane resources
// are re-injected by the normal prepare path on re-admission.
func specFromRecord(rec wal.Record) (JobSpec, error) {
	spec := JobSpec{
		Kind: JobKind(rec.Kind),
		Options: compare.Options{
			Epsilon:   rec.Epsilon,
			ChunkSize: rec.ChunkSize,
			Degrade:   rec.Degrade,
		},
	}
	switch spec.Kind {
	case JobCompare, JobShard:
		if len(rec.Names) != 2 {
			return JobSpec{}, fmt.Errorf("service: journal job %d: %s record has %d names, want 2",
				rec.Job, rec.Kind, len(rec.Names))
		}
		spec.A, spec.B = rec.Names[0], rec.Names[1]
		if spec.Kind == JobShard {
			spec.Shard = shard.Config{Workers: rec.Workers}
		}
	case JobGroup:
		if len(rec.Names) < 2 {
			return JobSpec{}, fmt.Errorf("service: journal job %d: group record has %d names, want >= 2",
				rec.Job, len(rec.Names))
		}
		spec.Baseline = rec.Names[0]
		spec.Runs = append([]string(nil), rec.Names[1:]...)
		topology, err := compare.ParseTopology(rec.Topology)
		if err != nil {
			return JobSpec{}, fmt.Errorf("service: journal job %d: %w", rec.Job, err)
		}
		spec.Topology = topology
	default:
		return JobSpec{}, fmt.Errorf("service: journal job %d: unknown kind %q", rec.Job, rec.Kind)
	}
	return spec, nil
}

// raiseJobIDFloor lifts the process-wide job ID counter above every ID
// the journal has seen, so re-admitted and new jobs never collide with
// ledger history.
func raiseJobIDFloor(n uint64) {
	for {
		cur := jobIDs.Load()
		if cur >= n || jobIDs.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Recovery is what Plane.Recover reconstructed from the journal.
type Recovery struct {
	// Ledger maps completed jobs to their durable verdict records, each
	// served as its LedgerJob, never recomputed.
	Ledger map[uint64]wal.Record
	// Resumed lists the re-admitted jobs — accepted in a previous life
	// but never given a verdict — now queued or running again under
	// their original IDs.
	Resumed []*Job
	// Replay carries the raw chain walk (holes, torn tail, read cost).
	Replay *wal.Replay
}

// Recover opens (replaying) the named journal on store, attaches it to
// the plane so every subsequent job lifecycle event is journaled, and
// restores exactly-once semantics across the restart: completed jobs'
// verdicts are returned as a servable ledger, and accepted-but-unfinished
// jobs are re-admitted under their original IDs. Call once, before
// serving traffic; name "" selects wal.DefaultName. A tampered journal
// refuses to open (ErrTampered) — a plane must not extend a chain it
// cannot trust.
func (p *Plane) Recover(ctx context.Context, store *pfs.Store, name string) (*Recovery, error) {
	j, rep, err := wal.Open(ctx, store, name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.journal != nil {
		p.mu.Unlock()
		return nil, errors.New("service: plane already has a journal")
	}
	p.journal = j
	p.mu.Unlock()

	cls := wal.Classify(rep.Records)
	raiseJobIDFloor(cls.MaxJob)
	out := &Recovery{Ledger: cls.Verdicts, Replay: rep}
	for _, rec := range cls.Pending {
		job, err := p.Open(rec.Tenant).resume(store, rec)
		if err != nil {
			return out, fmt.Errorf("service: re-admit job %d: %w", rec.Job, err)
		}
		out.Resumed = append(out.Resumed, job)
	}
	return out, nil
}

// Journal returns the journal attached by Recover, or nil when the plane
// runs without durability.
func (p *Plane) Journal() *wal.Journal {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.journal
}
