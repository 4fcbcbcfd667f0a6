package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/pfs"
	"repro/internal/shard"
	"repro/internal/wal"
)

// JobKind selects what a submitted job runs.
type JobKind string

// Job kinds.
const (
	// JobCompare is a two-checkpoint Merkle comparison (Spec.A vs
	// Spec.B).
	JobCompare JobKind = "compare"
	// JobGroup is an N-run group comparison (Spec.Baseline, Spec.Runs,
	// Spec.Topology).
	JobGroup JobKind = "group"
	// JobShard is a subtree-sharded comparison (Spec.A vs Spec.B over
	// Spec.Shard workers).
	JobShard JobKind = "shard"
)

// JobSpec describes one asynchronous submission.
type JobSpec struct {
	Kind     JobKind
	A, B     string
	Baseline string
	Runs     []string
	Topology compare.Topology
	Shard    shard.Config
	Options  compare.Options
}

// validate checks the spec's shape for its kind.
func (sp JobSpec) validate() error {
	switch sp.Kind {
	case JobCompare, JobShard:
		if sp.A == "" || sp.B == "" {
			return fmt.Errorf("service: %s job needs two checkpoint names", sp.Kind)
		}
	case JobGroup:
		if sp.Baseline == "" || len(sp.Runs) == 0 {
			return fmt.Errorf("service: group job needs a baseline and at least one run")
		}
	default:
		return fmt.Errorf("service: unknown job kind %q", sp.Kind)
	}
	return nil
}

// names returns every run-bearing name the spec touches, for binding
// validation.
func (sp JobSpec) names() []string {
	switch sp.Kind {
	case JobGroup:
		return append([]string{sp.Baseline}, sp.Runs...)
	default:
		return []string{sp.A, sp.B}
	}
}

// JobState is a job's lifecycle position.
type JobState int

// Job states, in order.
const (
	// JobQueued: admitted, waiting for an execution slot.
	JobQueued JobState = iota
	// JobRunning: holding a slot, comparison in progress.
	JobRunning
	// JobDone: verdict published; Done() is closed.
	JobDone
)

// String returns the state's wire name.
func (st JobState) String() string {
	switch st {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return "unknown"
	}
}

// Job is one asynchronous submission in flight. Snapshot its state with
// Status; wait for the verdict on Done.
type Job struct {
	id     uint64
	kind   JobKind
	tenant string
	done   chan struct{}

	mu      sync.Mutex
	state   JobState
	verdict Verdict
	err     error
	result  *compare.Result
	group   *compare.GroupReport
	shardst *shard.Stats
}

// jobIDs numbers jobs process-wide.
var jobIDs atomic.Uint64

// ID returns the job's plane-unique identifier.
func (j *Job) ID() uint64 { return j.id }

// Done closes when the verdict is published.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the pair result for compare/shard jobs, nil before
// completion or for group jobs.
func (j *Job) Result() *compare.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Group returns the group report for group jobs, nil otherwise.
func (j *Job) Group() *compare.GroupReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.group
}

// ShardStats returns the schedule stats for shard jobs, nil otherwise.
func (j *Job) ShardStats() *shard.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shardst
}

// JobStatus is a wire-friendly snapshot of one job.
type JobStatus struct {
	ID       uint64 `json:"id"`
	Kind     string `json:"kind"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"`
	Verdict  string `json:"verdict,omitempty"`
	ExitCode int    `json:"exitCode"`
	Error    string `json:"error,omitempty"`
	// Account is the evidence behind a done job's verdict — what the
	// comparison found and what it cost, a group's summed over its pairs —
	// and nil before that and for a job that failed. Its keys (diffCount,
	// degraded, unverifiedChunks, ...) sit beside the ones above.
	*compare.Account
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:     j.id,
		Kind:   string(j.kind),
		Tenant: j.tenant,
		State:  j.state.String(),
	}
	if j.state == JobDone {
		st.Verdict = j.verdict.String()
		st.ExitCode = j.verdict.ExitCode()
		if j.err != nil {
			st.Error = j.err.Error()
		}
		st.Account = accountOf(j.result, j.group)
	}
	return st
}

// LedgerStatus is the status of the job whose durable verdict record rec
// is: what Job.Status said when the verdict was published, on every key
// the record keeps. The account's other counts are not journaled and read
// 0.
func LedgerStatus(rec wal.Record) JobStatus {
	st := JobStatus{
		ID:       rec.Job,
		Kind:     rec.Kind,
		Tenant:   rec.Tenant,
		State:    JobDone.String(),
		Verdict:  Verdict(rec.Exit).String(),
		ExitCode: rec.Exit,
		Error:    rec.ErrMsg,
	}
	if Verdict(rec.Exit) != VerdictError {
		st.Account = &compare.Account{DiffCount: rec.DiffCount, Degraded: rec.Degraded,
			UnverifiedChunks: rec.UnverifiedChunks, ReadRetries: rec.ReadRetries, CASPrunedChunks: rec.CASPruned}
	}
	return st
}

// Submit runs a job asynchronously: options normalization and binding
// validation happen synchronously (a violation is a submission error),
// as does the admission decision (an *AdmissionError carries the
// backpressure price — the daemon's 429). On a journaled plane the
// accepted record is durable before Submit returns — durability is part
// of acceptance, so a journal failure rolls the admission back and the
// submission fails. The returned job is already queued or running; its
// goroutine is joined by Plane.Close, which also fails queued jobs with
// ErrPlaneClosed instead of abandoning them.
func (s *Session) Submit(store *pfs.Store, spec JobSpec) (*Job, error) {
	s.submitted()
	if err := spec.validate(); err != nil {
		s.reject()
		return nil, err
	}
	opts, err := s.prepare(spec.Options, spec.names()...)
	if err != nil {
		return nil, err
	}
	spec.Options = opts
	t, err := s.plane.sched.reserve(s.tenant)
	if err != nil {
		s.reject()
		return nil, err
	}
	j := &Job{
		id:     jobIDs.Add(1),
		kind:   spec.Kind,
		tenant: s.tenant.id,
		done:   make(chan struct{}),
	}
	if err := s.journalAppend(acceptedRecord(j.id, j.tenant, spec)); err != nil {
		s.plane.sched.abort(t)
		s.reject()
		return nil, fmt.Errorf("service: journal accepted record: %w", err)
	}
	s.plane.jobs.Add(1)
	// Joined by Plane.Close via plane.jobs.Wait.
	go s.runJob(j, t, store, spec)
	return j, nil
}

// resume re-admits one accepted-but-unfinished journal record under its
// original job ID (Plane.Recover's re-admission path). The accepted
// record already exists in the ledger, so none is appended; started and
// verdict records chain normally as the job re-runs.
func (s *Session) resume(store *pfs.Store, rec wal.Record) (*Job, error) {
	spec, err := specFromRecord(rec)
	if err != nil {
		return nil, err
	}
	s.submitted()
	opts, err := s.prepare(spec.Options, spec.names()...)
	if err != nil {
		return nil, err
	}
	spec.Options = opts
	t, err := s.plane.sched.reserve(s.tenant)
	if err != nil {
		s.reject()
		return nil, err
	}
	j := &Job{
		id:     rec.Job,
		kind:   spec.Kind,
		tenant: s.tenant.id,
		done:   make(chan struct{}),
	}
	s.plane.jobs.Add(1)
	// Joined by Plane.Close via plane.jobs.Wait.
	go s.runJob(j, t, store, spec)
	return j, nil
}

// journalAppend appends one lifecycle record when the plane has a
// journal attached; a plane without one runs non-durably and the append
// is a no-op.
func (s *Session) journalAppend(rec wal.Record) error {
	jn := s.plane.journalHandle()
	if jn == nil {
		return nil
	}
	_, err := jn.Append(rec)
	return err
}

// runJob drives one detached job to its verdict.
func (s *Session) runJob(j *Job, t *ticket, store *pfs.Store, spec JobSpec) {
	defer s.plane.jobs.Done()
	// Detached execution is governed by the plane lifecycle, not the
	// submitting request: a canceled HTTP request must not kill the
	// admitted comparison, and Plane.Close fails the ticket instead.
	ctx := context.Background()
	if err := s.plane.sched.wait(ctx, t); err != nil {
		s.reject()
		// A plane-closed rejection is deliberately NOT journaled as a
		// verdict: the job stays pending in the ledger, and the next
		// life re-admits and re-runs it to its one durable verdict.
		j.publish(outcome{err: err}, nil, nil, nil)
		return
	}
	defer s.plane.sched.release(t)
	// The slot goes back (idempotently) before the outcome is visible:
	// whoever waits on Done may submit again at once, and must not be
	// rejected for the slot this job still held.
	publish := func(o outcome, res *compare.Result, rep *compare.GroupReport, stats *shard.Stats) {
		s.plane.sched.release(t)
		j.publish(o, res, rep, stats)
	}
	if err := s.journalAppend(startedRecord(j.id, j.tenant, spec)); err != nil {
		o := outcome{err: err}
		s.settle(o)
		publish(o, nil, nil, nil)
		return
	}
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	var (
		res   *compare.Result
		rep   *compare.GroupReport
		stats *shard.Stats
		err   error
	)
	switch spec.Kind {
	case JobCompare:
		res, err = compare.CompareMerkle(ctx, store, spec.A, spec.B, spec.Options)
	case JobGroup:
		rep, err = compare.GroupCompare(ctx, store, spec.Baseline, spec.Runs, spec.Topology, spec.Options)
	case JobShard:
		res, stats, err = shard.Compare(ctx, store, spec.A, spec.B, spec.Shard, spec.Options)
	}
	o := judge(accountOf(res, rep), err)
	s.settle(o)
	// Durable-then-visible: the verdict record reaches the ledger before
	// the verdict is published. If durability fails, the job fails for
	// THIS life only — the ledger still lists it pending, and the next
	// life re-runs it to its one durable verdict.
	if jerr := s.journalAppend(verdictRecord(j.id, j.tenant, spec, o, res, rep)); jerr != nil {
		publish(outcome{err: fmt.Errorf("service: journal verdict record: %w", jerr)}, nil, nil, nil)
		return
	}
	publish(o, res, rep, stats)
}

// publish records the outcome and closes Done.
func (j *Job) publish(o outcome, res *compare.Result, rep *compare.GroupReport, stats *shard.Stats) {
	j.mu.Lock()
	j.state = JobDone
	j.err = o.err
	j.verdict = o.verdict()
	j.result = res
	j.group = rep
	j.shardst = stats
	j.mu.Unlock()
	close(j.done)
}
