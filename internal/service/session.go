package service

import (
	"context"
	"sync"

	"repro/internal/cas"
	"repro/internal/compare"
	"repro/internal/pfs"
	"repro/internal/shard"
)

// Session is one tenant's submission surface on a plane. Every compare
// entry point the repro facade exposes exists here as a method; each
// submission normalizes its options against the plane's resources,
// validates the named runs against the tenant's immutable bindings,
// passes admission control, and executes on the plane's pool.
// Sessions are safe for concurrent use; per-session statistics are
// accounted atomically per submission, so concurrent sessions never
// interleave each other's counters.
type Session struct {
	plane  *Plane
	tenant *tenant

	mu    sync.Mutex
	stats Stats
}

// Stats counts one session's submissions by outcome. Rejected counts
// submissions that never ran (binding violations, admission rejections,
// plane closed); Failed counts admitted comparisons that returned an
// error; Divergent and Degraded classify completed verdicts (a verdict
// can be both).
type Stats struct {
	Submitted int
	Rejected  int
	Completed int
	Failed    int
	Divergent int
	Degraded  int
}

// Tenant returns the tenant the session submits as.
func (s *Session) Tenant() string { return s.tenant.id }

// Plane returns the plane the session runs on.
func (s *Session) Plane() *Plane { return s.plane }

// Stats returns a copy of the session's counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Register installs an immutable run binding in the tenant's catalog.
// Re-registering an identical binding is a no-op; a conflicting one
// returns a *BindingError and changes nothing.
func (s *Session) Register(b Binding) error { return s.tenant.register(b) }

// Binding returns the tenant's binding for a run ID, if registered.
func (s *Session) Binding(runID string) (Binding, bool) { return s.tenant.lookup(runID) }

// Bindings lists the tenant's catalog sorted by run ID.
func (s *Session) Bindings() []Binding { return s.tenant.list() }

// prepare normalizes the options on the plane and validates every named
// run against the tenant's bindings. Both failure modes are submission
// errors: nothing was admitted or executed.
func (s *Session) prepare(opts compare.Options, names ...string) (compare.Options, error) {
	n, err := s.plane.NormalizeOptions(opts)
	if err != nil {
		s.reject()
		return compare.Options{}, err
	}
	for _, name := range names {
		if err := s.tenant.checkRun(name, n.Epsilon, n.ChunkSize); err != nil {
			s.reject()
			return compare.Options{}, err
		}
	}
	return n, nil
}

// admit passes admission control, blocking while queued. The returned
// release hands the slot back (idempotent); err means nothing was
// admitted.
func (s *Session) admit(ctx context.Context) (release func(), err error) {
	t, err := s.plane.sched.reserve(s.tenant)
	if err != nil {
		s.reject()
		return nil, err
	}
	if err := s.plane.sched.wait(ctx, t); err != nil {
		s.reject()
		return nil, err
	}
	return func() { s.plane.sched.release(t) }, nil
}

// submit is the one submission lifecycle, and where its accounting
// invariant holds: every public submission counts Submitted once, then
// exactly one of Rejected (prepare or admit refused it: nothing ran),
// Failed or Completed (settle). The options are normalized in place, so
// exec — the comparison itself, returning its outcome — sees the plane's
// resources; nil opts skips normalization and binding checks (Analyze: no ε
// is involved). The detached jobs (jobs.go) reserve at Submit and wait in
// their own goroutine, so they count Submitted and settle themselves.
func (s *Session) submit(ctx context.Context, opts *compare.Options, names []string, exec func() outcome) error {
	s.submitted()
	if opts != nil {
		n, err := s.prepare(*opts, names...)
		if err != nil {
			return err
		}
		*opts = n
	}
	release, err := s.admit(ctx)
	if err != nil {
		return err
	}
	defer release()
	return s.settle(exec())
}

func (s *Session) submitted() {
	s.mu.Lock()
	s.stats.Submitted++
	s.mu.Unlock()
}

func (s *Session) reject() {
	s.mu.Lock()
	s.stats.Rejected++
	s.mu.Unlock()
}

// settle classifies one executed submission into the counters and returns
// its error.
func (s *Session) settle(o outcome) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o.err != nil {
		s.stats.Failed++
		return o.err
	}
	s.stats.Completed++
	if o.diverged {
		s.stats.Divergent++
	}
	if o.degraded {
		s.stats.Degraded++
	}
	return nil
}

// Compare runs the two-stage Merkle comparison of one checkpoint pair.
func (s *Session) Compare(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (res *compare.Result, err error) {
	err = s.submit(ctx, &opts, []string{nameA, nameB}, func() outcome {
		res, err = compare.CompareMerkle(ctx, store, nameA, nameB, opts)
		return judge(accountOf(res, nil), err)
	})
	return res, err
}

// CompareDirect runs the optimized element-wise baseline.
func (s *Session) CompareDirect(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (res *compare.Result, err error) {
	err = s.submit(ctx, &opts, []string{nameA, nameB}, func() outcome {
		res, err = compare.CompareDirect(ctx, store, nameA, nameB, opts)
		return judge(accountOf(res, nil), err)
	})
	return res, err
}

// AllClose runs the naive boolean baseline.
func (s *Session) AllClose(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (ok bool, err error) {
	err = s.submit(ctx, &opts, []string{nameA, nameB}, func() outcome {
		ok, _, err = compare.CompareAllClose(ctx, store, nameA, nameB, opts)
		return outcome{diverged: err == nil && !ok, err: err}
	})
	return ok, err
}

// CompareTreesOnly answers from metadata alone (works on compacted
// history).
func (s *Session) CompareTreesOnly(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (res *compare.Result, err error) {
	err = s.submit(ctx, &opts, []string{nameA, nameB}, func() outcome {
		res, err = compare.CompareTreesOnly(ctx, store, nameA, nameB, opts)
		return judge(accountOf(res, nil), err)
	})
	return res, err
}

// CompareHistories aligns and compares two runs' checkpoint histories.
func (s *Session) CompareHistories(ctx context.Context, store *pfs.Store, runA, runB string, method compare.Method, opts compare.Options) (rep *compare.HistoryReport, err error) {
	err = s.submit(ctx, &opts, []string{runA, runB}, func() outcome {
		rep, err = compare.CompareHistories(ctx, store, runA, runB, method, opts)
		if err != nil || rep == nil {
			return outcome{err: err}
		}
		return outcome{diverged: !rep.Reproducible(), degraded: rep.Degraded()}
	})
	return rep, err
}

// GroupCompare compares N runs' checkpoints as one group plan.
func (s *Session) GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, opts compare.Options) (rep *compare.GroupReport, err error) {
	err = s.submit(ctx, &opts, append([]string{baseline}, runs...), func() outcome {
		rep, err = compare.GroupCompare(ctx, store, baseline, runs, topology, opts)
		return judge(accountOf(nil, rep), err)
	})
	return rep, err
}

// CompareDiff compares two differentially captured checkpoints through
// the plane's shared CAS handle for the store.
func (s *Session) CompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, nameA, nameB string, opts compare.Options) (res *compare.Result, err error) {
	err = s.submit(ctx, &opts, []string{nameA, nameB}, func() outcome {
		res, err = compare.CompareDiff(ctx, store, cs, nameA, nameB, opts)
		return judge(accountOf(res, nil), err)
	})
	return res, err
}

// GroupCompareDiff compares N differentially captured runs as one plan.
func (s *Session) GroupCompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology compare.Topology, opts compare.Options) (rep *compare.GroupReport, err error) {
	err = s.submit(ctx, &opts, append([]string{baseline}, runs...), func() outcome {
		rep, err = compare.GroupCompareDiff(ctx, store, cs, baseline, runs, topology, opts)
		return judge(accountOf(nil, rep), err)
	})
	return rep, err
}

// ShardCompare runs one comparison sharded across simulated workers.
func (s *Session) ShardCompare(ctx context.Context, store *pfs.Store, nameA, nameB string, cfg shard.Config, opts compare.Options) (res *compare.Result, stats *shard.Stats, err error) {
	err = s.submit(ctx, &opts, []string{nameA, nameB}, func() outcome {
		res, stats, err = shard.Compare(ctx, store, nameA, nameB, cfg, opts)
		return judge(accountOf(res, nil), err)
	})
	return res, stats, err
}

// ShardGroupCompare pools a group comparison's stage 2 into one fleet.
func (s *Session) ShardGroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, cfg shard.Config, opts compare.Options) (rep *compare.GroupReport, stats *shard.Stats, err error) {
	err = s.submit(ctx, &opts, append([]string{baseline}, runs...), func() outcome {
		rep, stats, err = shard.GroupCompare(ctx, store, baseline, runs, topology, cfg, opts)
		return judge(accountOf(nil, rep), err)
	})
	return rep, stats, err
}

// Analyze profiles two checkpoints' divergence magnitudes (the ε-picking
// tool). No ε is involved, so bindings are not consulted, but the full
// data read passes admission like any comparison.
func (s *Session) Analyze(ctx context.Context, store *pfs.Store, nameA, nameB string) (a *compare.Analysis, err error) {
	err = s.submit(ctx, nil, nil, func() outcome {
		a, err = compare.Analyze(ctx, store, nameA, nameB)
		return outcome{err: err}
	})
	return a, err
}

// Evolution builds a run's state-evolution profile from metadata.
func (s *Session) Evolution(ctx context.Context, store *pfs.Store, runID string, opts compare.Options) (rep *compare.EvolutionReport, err error) {
	err = s.submit(ctx, &opts, []string{runID}, func() outcome {
		rep, err = compare.Evolution(ctx, store, runID, opts)
		return outcome{err: err}
	})
	return rep, err
}

// CompactHistory compacts a run's older checkpoints to metadata-only
// form through the plane.
func (s *Session) CompactHistory(ctx context.Context, store *pfs.Store, runID string, keepLatest int, opts compare.Options) (rep *compare.CompactReport, err error) {
	err = s.submit(ctx, &opts, []string{runID}, func() outcome {
		rep, err = compare.CompactHistory(ctx, store, runID, keepLatest, opts)
		return outcome{err: err}
	})
	return rep, err
}

// BuildAndSave builds and saves a checkpoint's metadata with the plane's
// resources. Capture-side work is not admission-gated or counted in the
// session stats (it is the checkpointing path, not a served comparison),
// but bound runs must still be captured at their bound coordinates.
func (s *Session) BuildAndSave(ctx context.Context, store *pfs.Store, name string, opts compare.Options) (*compare.Metadata, compare.BuildStats, error) {
	n, err := s.plane.NormalizeOptions(opts)
	if err != nil {
		return nil, compare.BuildStats{}, err
	}
	if err := s.tenant.checkRun(name, n.Epsilon, n.ChunkSize); err != nil {
		return nil, compare.BuildStats{}, err
	}
	return compare.BuildAndSave(ctx, store, name, n)
}
