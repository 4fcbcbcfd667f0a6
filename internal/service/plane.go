// Package service is the lifecycle-managed plane behind every comparison
// the system serves. It replaces accidental singleton acquisition — each
// one-shot entry point lazily grabbing the process-wide pool and ring —
// with a Plane that explicitly owns the shared resources:
//
//   - one persistent device.Pool running every comparison kernel,
//   - one aio.Uring pricing every stage-2 scattered read, and with it the
//     stage-2 buffer arena (window buffer sets, metadata buffers,
//     coalescer plan scratch) every comparison recycles through,
//   - the content-addressed chunk stores (one cas.Store handle per
//     pfs.Store, opened once and shared),
//   - the stage-2 verdict memos (one CASMemo per ε),
//   - the per-tenant run catalog: immutable run bindings (code ref,
//     params, ε, dataset version) validated at submission time.
//
// Sessions opened on a plane multiplex concurrent compare/group/shard
// plans over those resources behind an admission-controlled scheduler:
// per-tenant quotas, a bounded FIFO queue, and deterministic
// reject-with-retry-after backpressure priced on the virtual clock (see
// sched.go). Startup and shutdown are deterministic — New starts nothing
// until the first comparison, Close drains in-flight work, refuses new
// admissions, and joins every resource it owns, so a closed plane leaks
// neither goroutines nor handles.
//
// The process has one set of default resources — device.Default() and
// aio.Default(), ring, arena and all: the Default plane wraps them, and a
// direct internal/compare call that leaves Options.Exec/Backend nil lands
// on the same two, so a facade call and a planner call share one pool and
// one ring. Planes built by New own private ones; Close joins the pool and
// releases the ring's arena.
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/wal"
)

// Config parameterizes a Plane. The zero value selects production
// defaults sized like the pre-plane process-wide singletons, so results
// and virtual prices are bit-identical to the one-shot era.
type Config struct {
	// Workers is the device pool's worker count (<= 0 selects
	// GOMAXPROCS, matching device.Default()).
	Workers int
	// QueueDepth is the ring's queue depth (default 256, matching
	// aio.Default(); the overlap pricing model depends on it).
	QueueDepth int
	// MaxInFlight bounds the comparisons executing concurrently across
	// all tenants (default 64). Admitted work beyond it queues.
	MaxInFlight int
	// MaxQueued bounds the admission queue (default 4096). A submission
	// arriving with the queue full is rejected with a RetryAfter — the
	// queue never grows without bound.
	MaxQueued int
	// TenantPending bounds one tenant's pending (queued + running) jobs
	// (default MaxInFlight). A tenant at its quota is rejected
	// immediately regardless of global capacity.
	TenantPending int
	// RetryAfterBase and RetryAfterMax bound the backpressure price: the
	// RetryAfter attached to a rejection grows exponentially with the
	// pressure that caused it, from Base up to Max (defaults 5ms and
	// 1s), with deterministic jitter — virtual durations, never slept.
	RetryAfterBase time.Duration
	RetryAfterMax  time.Duration
}

// withDefaults fills unset knobs with the production defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4096
	}
	if c.TenantPending <= 0 {
		c.TenantPending = c.MaxInFlight
	}
	if c.RetryAfterBase <= 0 {
		c.RetryAfterBase = 5 * time.Millisecond
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = time.Second
	}
	return c
}

// Plane owns the shared resources every session draws on. Open sessions
// with Open; shut the plane down with Close.
type Plane struct {
	cfg  Config
	exec *device.Pool
	ring *aio.Uring
	// coalesce is the default stage-2 backend: the ring behind one
	// persistent coalescer planning in the ring's arena.
	coalesce aio.Coalescing
	owns     bool // Close joins exec and releases the arena (false only for Default())
	sched    *sched

	// jobs joins every detached job goroutine (Session.Submit) so Close
	// returns only after the last one has published its verdict.
	jobs sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	tenants map[string]*tenant
	memos   map[uint64]*compare.CASMemo // keyed by ε bits
	stores  map[*pfs.Store]*cas.Store
	// journal is the crash-durable job ledger, attached by Recover (nil
	// for planes running without durability). See journal.go.
	journal *wal.Journal
}

// New creates a plane that owns a fresh pool and ring sized by cfg.
// Nothing starts until the first comparison; Close joins the pool.
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	ring := aio.NewUring(cfg.QueueDepth)
	ring.Arena().SetLimit(arenaLimit(cfg))
	return &Plane{
		cfg:      cfg,
		exec:     device.NewPool(cfg.Workers),
		ring:     ring,
		coalesce: aio.NewCoalescing(ring, 0),
		owns:     true,
		sched:    newSched(cfg),
		tenants:  make(map[string]*tenant),
		memos:    make(map[uint64]*compare.CASMemo),
		stores:   make(map[*pfs.Store]*cas.Store),
	}
}

// arenaLimit is the stage-2 arena's bound for a plane: what MaxInFlight
// admitted comparisons hold at once at the default pipeline shape — one
// window's buffer sets each, both sides of an 8 MiB slice (aio.MaxSetBytes
// with its overshoot and request batches), and one more set's worth for
// the metadata of their members, which is read into the same arena (a pair
// of 9 MiB metadata files: two 18 GiB checkpoints at the default 64 KiB
// chunk). The arena never retains more, however many comparisons pass
// through; sets larger than one default set are not retained at all.
func arenaLimit(cfg Config) int64 {
	return int64(cfg.MaxInFlight) * (1 + 1) * aio.MaxSetBytes
}

// defaultPlane is the process-wide plane behind Default.
var (
	defaultPlane     *Plane
	defaultPlaneOnce sync.Once
)

// Default returns the process-wide plane used by the repro facade's
// one-shot entry points. It wraps the never-closed process singletons
// (device.Default(), aio.Default()) — the same two a direct
// internal/compare call defaults to — so facade calls and planner calls
// share one pool, one ring and one arena. Its Close drains admissions but
// leaves the singletons running.
func Default() *Plane {
	defaultPlaneOnce.Do(func() {
		cfg := Config{}.withDefaults()
		defaultPlane = &Plane{
			cfg:      cfg,
			exec:     device.Default(),
			ring:     aio.Default(),
			coalesce: aio.NewCoalescing(aio.Default(), 0),
			sched:    newSched(cfg),
			tenants:  make(map[string]*tenant),
			memos:    make(map[uint64]*compare.CASMemo),
			stores:   make(map[*pfs.Store]*cas.Store),
		}
	})
	return defaultPlane
}

// Executor returns the plane's persistent kernel executor.
func (p *Plane) Executor() device.Executor { return p.exec }

// Backend returns the plane's ring engine.
func (p *Plane) Backend() *aio.Uring { return p.ring }

// ArenaStats snapshots the stage-2 buffer arena: bytes and sets retained
// for reuse, sets checked out, and checkouts that had to allocate.
func (p *Plane) ArenaStats() aio.ArenaStats { return p.ring.Arena().Stats() }

// PeakInFlight reports the highest concurrent-execution count the
// scheduler has reached — the saturation bound MaxInFlight enforces.
func (p *Plane) PeakInFlight() int { return p.sched.peakInFlight() }

// AdmissionMetrics snapshots every tenant's cumulative admission
// counters, sorted by tenant ID — the capacity-planning view reprod
// serves on GET /v1/metrics.
func (p *Plane) AdmissionMetrics() []metrics.TenantAdmission {
	p.mu.Lock()
	tenants := make([]*tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		tenants = append(tenants, t)
	}
	p.mu.Unlock()
	out := make([]metrics.TenantAdmission, 0, len(tenants))
	p.sched.mu.Lock()
	for _, t := range tenants {
		out = append(out, metrics.TenantAdmission{
			Tenant:       t.id,
			Accepted:     t.accepted,
			Rejected:     t.rejected,
			RetryAfterMs: t.retryAfterTotal.Milliseconds(),
		})
	}
	p.sched.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Open returns a session bound to the named tenant. Sessions are cheap
// and safe for concurrent use; any number may be open per tenant, and
// they share the tenant's bindings and quota. Opening on a closed plane
// succeeds, but every submission fails with ErrPlaneClosed.
func (p *Plane) Open(tenantID string) *Session {
	return &Session{plane: p, tenant: p.tenantState(tenantID)}
}

// tenantState returns (creating on first use) the named tenant's state.
func (p *Plane) tenantState(id string) *tenant {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if !ok {
		t = &tenant{id: id, bindings: make(map[string]Binding)}
		p.tenants[id] = t
	}
	return t
}

// Memo returns the plane-owned stage-2 verdict memo for ε, creating it
// on first use. One memo per ε is shared by every session, so a verdict
// proven once for a digest pair is replayed for every tenant comparing
// through the same CAS. Memoized replay changes a Result's read-op
// accounting, so the plane never injects a memo implicitly — callers
// (the reprod daemon) opt in via Options.Memo.
func (p *Plane) Memo(epsilon float64) *compare.CASMemo {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := epsilonBits(epsilon)
	m, ok := p.memos[key]
	if !ok {
		m = compare.NewCASMemo(epsilon)
		p.memos[key] = m
	}
	return m
}

// CAS returns the plane-owned content-addressed chunk store handle for
// store, opening (and index-replaying) it on first use. One handle per
// pfs.Store is shared by every session — cas.Store is safe for
// concurrent use, and a shared handle is what makes cross-tenant dedup
// and extent pruning see one coherent index.
func (p *Plane) CAS(ctx context.Context, store *pfs.Store) (*cas.Store, error) {
	p.mu.Lock()
	if cs, ok := p.stores[store]; ok {
		p.mu.Unlock()
		return cs, nil
	}
	p.mu.Unlock()
	// Open outside the lock: index replay does real I/O.
	cs, _, err := cas.Open(ctx, store)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prior, ok := p.stores[store]; ok {
		return prior, nil // lost the race; share the first handle
	}
	p.stores[store] = cs
	return cs, nil
}

// NormalizeOptions is the one options-defaulting path every facade
// variant routes through: the plane's executor and ring are injected
// where the caller left Exec/Backend nil (replicating the coalescing
// wrap the pre-plane defaults applied), then the compare layer's own
// Normalize validates ε and fills the remaining defaults. The Retry
// knob is passed through un-resolved so the planners' own idempotent
// resolution sees the caller's sentinel (zero = default policy,
// negative MaxAttempts = disabled) exactly as a direct call would.
func (p *Plane) NormalizeOptions(o compare.Options) (compare.Options, error) {
	return p.normalizeOptions(o)
}

func (p *Plane) normalizeOptions(o compare.Options) (compare.Options, error) {
	if o.Exec == nil {
		o.Exec = p.exec
	}
	if o.Backend == nil {
		if o.CoalesceMaxGap < 0 {
			o.Backend = p.ring
		} else {
			o.Backend = p.coalesce.WithMaxGap(o.CoalesceMaxGap)
		}
	}
	raw := o.Retry
	n, err := o.Normalize()
	if err != nil {
		return compare.Options{}, err
	}
	n.Retry = raw
	return n, nil
}

// Close shuts the plane down deterministically: new admissions fail with
// ErrPlaneClosed, queued submissions are rejected, in-flight comparisons
// drain to completion, detached jobs publish their verdicts, and the
// plane's own pool is joined and the stage-2 arena is released.
// Idempotent. The Default plane
// drains but leaves the process-wide singletons running (it does not own
// them); planes built by New verify their leak accounting and report a
// shutdown that left work behind as an error.
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()

	p.sched.close() // reject the queue, wait out in-flight work
	p.jobs.Wait()   // detached jobs finish publishing after release

	var arenaErr error
	if p.owns {
		p.exec.Close()
		// Every comparison has drained, so every buffer set is back:
		// release the arena's memory, and report a set that is not.
		arenaErr = p.ring.Arena().Release()
	}
	if n := p.sched.inFlight(); n != 0 {
		return fmt.Errorf("service: plane closed with %d comparisons still accounted in flight", n)
	}
	if arenaErr != nil {
		return fmt.Errorf("service: %w", arenaErr)
	}
	return nil
}
