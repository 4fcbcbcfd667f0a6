// Package service is the lifecycle-managed plane behind every comparison
// the system serves. It replaces accidental singleton acquisition — each
// one-shot entry point lazily grabbing the process-wide pool — with a
// Plane that explicitly owns the shared resources:
//
//   - one persistent device.Pool running every comparison kernel,
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
// The process has one default pool, device.Default(): the Default plane
// wraps it, and a direct internal/compare call that leaves Options.Exec
// nil lands on it too, so a facade call and a planner call share one
// pool. Planes built by New own a private one; Close joins it. Stage-2
// reads are priced by the caller's Options.Backend, left nil
// aio.Default(), on every plane alike.
package service

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/wal"
)

// Config parameterizes a Plane. The zero value selects production
// defaults sized like the process-wide pool, so results and virtual
// prices are those of a direct compare call.
type Config struct {
	// Workers is the device pool's worker count (<= 0 selects
	// GOMAXPROCS, matching device.Default()).
	Workers int
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
}

// withDefaults fills unset knobs with the production defaults.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4096
	}
	if c.TenantPending <= 0 {
		c.TenantPending = c.MaxInFlight
	}
	return c
}

// Plane owns the shared resources every session draws on. Open sessions
// with Open; shut the plane down with Close.
type Plane struct {
	cfg   Config
	exec  *device.Pool
	owns  bool // Close joins exec (false only for Default())
	sched *sched

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

// New creates a plane that owns a fresh pool sized by cfg.
// Nothing starts until the first comparison; Close joins the pool.
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	return &Plane{
		cfg:     cfg,
		exec:    device.NewPool(cfg.Workers),
		owns:    true,
		sched:   newSched(cfg),
		tenants: make(map[string]*tenant),
		memos:   make(map[uint64]*compare.CASMemo),
		stores:  make(map[*pfs.Store]*cas.Store),
	}
}

// defaultPlane is the process-wide plane behind Default.
var (
	defaultPlane     *Plane
	defaultPlaneOnce sync.Once
)

// Default returns the process-wide plane used by the repro facade's
// one-shot entry points. It wraps the never-closed process pool,
// device.Default() — the one a direct internal/compare call defaults to —
// so facade calls and planner calls share one pool. Its Close drains
// admissions but leaves the pool running.
func Default() *Plane {
	defaultPlaneOnce.Do(func() {
		cfg := Config{}.withDefaults()
		defaultPlane = &Plane{
			cfg:     cfg,
			exec:    device.Default(),
			sched:   newSched(cfg),
			tenants: make(map[string]*tenant),
			memos:   make(map[uint64]*compare.CASMemo),
			stores:  make(map[*pfs.Store]*cas.Store),
		}
	})
	return defaultPlane
}

// Executor returns the plane's persistent kernel executor.
func (p *Plane) Executor() device.Executor { return p.exec }

// Backend returns the ring engine the plane's comparisons read through
// when their options leave Backend nil: aio.Default(), on every plane.
func (p *Plane) Backend() *aio.Uring { return aio.Default() }

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
// variant routes through: the plane's executor is injected where the
// caller left Exec nil, then the compare layer's own Normalize validates
// ε and fills the remaining defaults (a nil Backend is aio.Default(), a
// zero Retry the default policy, a disabled one a single attempt). The
// planners normalize again, which changes nothing.
func (p *Plane) NormalizeOptions(o compare.Options) (compare.Options, error) {
	if o.Exec == nil {
		o.Exec = p.exec
	}
	return o.Normalize()
}

// Close shuts the plane down deterministically: new admissions fail with
// ErrPlaneClosed, queued submissions are rejected, in-flight comparisons
// drain to completion, detached jobs publish their verdicts, the plane's
// own pool is joined and the attached journal is closed, its error
// returned. Idempotent. The Default plane
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

	if p.owns {
		p.exec.Close()
	}
	var err error
	if n := p.sched.inFlight(); n != 0 {
		err = fmt.Errorf("service: plane closed with %d comparisons still accounted in flight", n)
	}
	if j := p.Journal(); j != nil {
		err = cmp.Or(err, j.Close())
	}
	return err
}
