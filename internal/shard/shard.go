// Package shard implements the scale-out tier of the comparison engine:
// one checkpoint-pair (or N-run group) comparison is split across M
// simulated workers by Merkle subtree. The coordinator runs stage 1 on
// metadata only, prunes equal subtrees, and cuts the divergent ones into
// work units; workers execute stage 2 — the planners' one pipeline, in
// windows sized to a bounded buffer budget — steal subtree batches from
// loaded peers when idle, and return per-subtree verdicts the coordinator
// folds into the same Result/GroupReport the single-node path produces —
// bit-identical diffs, proven against CompareMerkle as the oracle.
//
// The fleet is simulated: a worker is a virtual clock, a deque and a
// stage-2 view of the member set, and the engine is a discrete-event loop
// on the caller's goroutine (run.execute). Work units do not travel: any
// worker executes any unit from the member set the coordinator's stage 1
// filled, which is what makes every unit stealable.
package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compare"
	"repro/internal/merkle"
	"repro/internal/pfs"
)

// Assignment selects how the coordinator maps work units to workers
// before execution starts (stealing then rebalances at runtime).
type Assignment int

// Assignment policies.
const (
	// AssignBlock is the owner-computes domain decomposition: worker w
	// owns a contiguous block of the global chunk key space. It is the
	// classic static partition — and the one skewed diff density
	// punishes, since all divergent subtrees may fall into one block.
	AssignBlock Assignment = iota
	// AssignPlacement is placement-aware: each unit goes to the worker
	// owning its home OST (Target % Workers), so every target is read
	// by exactly one worker and per-target contention stays at 1. On an
	// unstriped store it degenerates to AssignBlock.
	AssignPlacement
	// AssignRandom scatters units uniformly by a seeded hash: balanced
	// counts, but every worker touches every OST, so per-target
	// contention approaches the worker count.
	AssignRandom
)

// String returns the policy's report name.
func (a Assignment) String() string {
	switch a {
	case AssignBlock:
		return "block"
	case AssignPlacement:
		return "placement"
	case AssignRandom:
		return "random"
	default:
		return fmt.Sprintf("Assignment(%d)", int(a))
	}
}

// Chaos schedules a deterministic worker failure mid-comparison: worker
// Worker dies after completing AfterUnits units. The dying worker
// returns its in-flight unit to its deque (stealable, never dropped)
// and leaves the schedule; peers — or the coordinator's drain fallback —
// finish its share.
type Chaos struct {
	Enabled    bool
	Worker     int
	AfterUnits int
}

// Config parameterizes the sharded comparison engine.
type Config struct {
	// Workers is the simulated worker count M (default 4, at most
	// MaxWorkers).
	Workers int
	// Budget bounds the stage-2 chunk bytes (both sides summed) a worker
	// may hold in flight at once — the out-of-core invariant. Default
	// 16 MiB; must be at least twice the chunk size the compared metadata
	// was built at.
	Budget int64
	// SubtreeChunks is the work-unit grain: candidate chunks of one
	// (pair, field) are grouped into subtrees of this many leaves
	// (default 16).
	SubtreeChunks int
	// Assignment selects the initial unit→worker mapping.
	Assignment Assignment
	// Stealing lets idle workers steal subtree batches from the tail of
	// the most-loaded peer's deque.
	Stealing bool
	// Seed drives AssignRandom (and nothing else).
	Seed uint64
	// Chaos optionally kills one worker mid-comparison.
	Chaos Chaos
}

// MaxWorkers bounds Config.Workers. A worker costs a clock and a deque
// whether or not a unit ever reaches it, and every turn of the schedule
// looks at all of them, so a fleet size a client picks needs a ceiling:
// this one is far past any unit count the simulation is run at and keeps
// an idle fleet under a megabyte and a few milliseconds.
const MaxWorkers = 4096

// Validate reports what Compare and GroupCompare would refuse the
// configuration for before reading anything, so a service can answer for
// it at submission.
func (c Config) Validate() error {
	_, err := c.normalized()
	return err
}

// normalized validates the configuration and fills defaults. The budget's
// lower bound depends on the metadata and is checked at partition time.
func (c Config) normalized() (Config, error) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Workers > MaxWorkers {
		return c, fmt.Errorf("shard: %d workers exceed the maximum of %d", c.Workers, MaxWorkers)
	}
	if c.SubtreeChunks <= 0 {
		c.SubtreeChunks = 16
	}
	if c.Budget <= 0 {
		c.Budget = 16 << 20
	}
	if c.Chaos.Enabled && (c.Chaos.Worker < 0 || c.Chaos.Worker >= c.Workers) {
		return c, fmt.Errorf("shard: chaos worker %d out of range [0,%d)", c.Chaos.Worker, c.Workers)
	}
	return c, nil
}

// WorkerStats is one worker's share of the execution.
type WorkerStats struct {
	Units        int           `json:"units"`
	Steals       int64         `json:"steals"`
	StolenUnits  int64         `json:"stolen_units"`
	IOVirtual    time.Duration `json:"io_virtual_ns"`
	CompVirtual  time.Duration `json:"comp_virtual_ns"`
	BytesRead    int64         `json:"bytes_read"`
	PeakInFlight int64         `json:"peak_in_flight_bytes"`
	Died         bool          `json:"died,omitempty"`
}

// Virtual is the worker's total virtual busy time.
func (w WorkerStats) Virtual() time.Duration { return w.IOVirtual + w.CompVirtual }

// Stats reports the scale-out execution itself — scheduling, stealing,
// contention, budget — alongside the comparison Result/GroupReport,
// which stays bit-identical to the single-node path.
type Stats struct {
	Workers    int    `json:"workers"`
	Units      int    `json:"units"`
	Targets    int    `json:"targets"`
	Assignment string `json:"assignment"`
	Stealing   bool   `json:"stealing"`
	// MakespanVirtual is the slowest worker's virtual busy time (plus
	// the coordinator's drain fallback, when it ran) — the scale-out
	// figure of merit.
	MakespanVirtual time.Duration `json:"makespan_virtual_ns"`
	// ReadVirtual sums every worker's virtual read time — the quantity
	// placement-aware assignment minimizes on a striped store.
	ReadVirtual time.Duration `json:"read_virtual_ns"`
	// TotalVirtual sums every worker's busy time (io + compute).
	TotalVirtual time.Duration `json:"total_virtual_ns"`
	Steals       int64         `json:"steals"`
	StolenUnits  int64         `json:"stolen_units"`
	// WorkerFailures counts chaos-killed workers; CoordinatorUnits
	// counts orphaned units the coordinator executed itself after all
	// workers exited.
	WorkerFailures   int           `json:"worker_failures"`
	CoordinatorUnits int           `json:"coordinator_units"`
	BudgetBytes      int64         `json:"budget_bytes"`
	PeakInFlight     int64         `json:"peak_in_flight_bytes"`
	PerWorker        []WorkerStats `json:"per_worker"`
}

// splitmix64 is the same deterministic mixer the retry jitter uses: no
// global RNG, no wall clock, reproducible across runs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit is one work unit: the candidate chunks of one divergent Merkle
// subtree of one (pair, field). Its sequence number is its index in
// run.units — what the deques hold; any worker can execute it from the
// member set alone.
type unit struct {
	pair, field int
	// target is the home OST of the unit's first byte (placement).
	target int
	// chunks are the candidate chunk indices, ascending.
	chunks []int
	// bytes is one side's candidate payload, the deques' steal weight.
	bytes int64
	// key is the unit's ordinal in the global chunk key space: the chunks
	// of prior pairs and fields plus its first chunk index.
	key int64
}

// run is the coordinator/worker executor behind Compare and GroupCompare:
// the partition step cuts units from the member set's stage-1 output,
// execute schedules them over the M simulated workers, and the verdicts
// land in the member set's per-pair folds for its report step.
type run struct {
	store *pfs.Store
	cfg   Config
	ms    *compare.MemberSet

	units []unit
	// totalChunks is the size of the global chunk key space the units'
	// keys index. AssignBlock decomposes this key space — not the
	// candidate list — so skewed divergence really does land on few
	// workers, as it would under owner-computes.
	totalChunks int64
	// window is the stage-2 window per source: the most whole chunks of
	// both sides that fit the budget.
	window int
	// sharers is the per-target contention table assign froze; execute
	// installs it on the store for the run.
	sharers []int
	dq      *deques

	// workers holds the M workers' states and, last, the coordinator's
	// (it executes only what a drain leaves it).
	workers []workerState

	stats Stats
}

// addUnits partitions one (pair, field)'s candidate chunks into subtree
// work units. chunks must be ascending (merkle.Diff order); base is the
// field's absolute file offset in the pair's A container. The caller then
// grows r.totalChunks by the field's full chunk count, so unit key
// ordinals stay aligned with the global key space.
func (r *run) addUnits(pair, field int, tree *merkle.Tree, chunks []int, base int64) {
	striping := r.store.Striping()
	grain := r.cfg.SubtreeChunks
	for i := 0; i < len(chunks); {
		// One unit per grain-level subtree: all candidates whose chunk
		// index falls in [sub*grain, (sub+1)*grain).
		sub := chunks[i] / grain
		j := i
		var bytes int64
		for j < len(chunks) && chunks[j]/grain == sub {
			_, n := tree.ChunkRange(chunks[j])
			bytes += int64(n)
			j++
		}
		off, _ := tree.ChunkRange(chunks[i])
		r.units = append(r.units, unit{
			pair: pair, field: field, target: striping.TargetOf(base + off),
			chunks: chunks[i:j], bytes: bytes, key: r.totalChunks + int64(chunks[i]),
		})
		i = j
	}
}

// assign maps every unit to its initial worker under the configured
// policy and freezes the per-target contention table: each OST's sharers
// count is the number of distinct workers whose assigned units live there.
// The table is frozen at assignment time — stealing moves work but keeps
// the assignment-time pricing, a deliberate (and documented)
// simplification that keeps unit read costs deterministic.
func (r *run) assign() {
	m := r.cfg.Workers
	r.dq = newDeques(m, func(seq int) int64 { return r.units[seq].bytes })
	striping := r.store.Striping()
	targets := striping.Targets
	if targets < 1 {
		targets = 1
	}
	touched := make([]map[int]bool, targets)
	for seq, u := range r.units {
		// AssignBlock, and AssignPlacement on an unstriped store.
		w := min(int(u.key*int64(m)/max(r.totalChunks, 1)), m-1)
		switch {
		case r.cfg.Assignment == AssignPlacement && striping.Enabled():
			w = u.target % m
		case r.cfg.Assignment == AssignRandom:
			w = int(splitmix64(r.cfg.Seed^uint64(seq)*0x9e3779b97f4a7c15) % uint64(m))
		}
		r.dq.push(w, seq)
		if touched[u.target] == nil {
			touched[u.target] = make(map[int]bool)
		}
		touched[u.target][w] = true
	}
	r.sharers = make([]int, targets)
	for t := range r.sharers {
		r.sharers[t] = max(len(touched[t]), 1)
	}
	r.stats.Workers = m
	r.stats.Units = len(r.units)
	r.stats.Targets = targets
	r.stats.Assignment = r.cfg.Assignment.String()
	r.stats.Stealing = r.cfg.Stealing
	r.stats.BudgetBytes = r.cfg.Budget
}

// execute schedules the assigned units over the workers, folds their
// verdicts, and fills Stats. It is a discrete-event loop on the caller's
// goroutine: every turn belongs to the live worker with the lowest virtual
// clock (ties to the lowest id), which takes its next unit — its own
// deque's head, else a batch stolen from the most-loaded peer's tail — runs
// it, and moves its clock on by the unit's virtual cost. Execution order IS
// virtual order, and has to be: a unit's price is known only after it ran,
// and depends on the page-cache state the units before it left. That one
// total order fixes which worker runs which unit, every steal, every chaos
// death and through them the makespan. The per-target contention table is
// on the store — where the one read-pricing site (internal/aio) looks it up
// per batch — only while the units run, and off it on every exit path.
func (r *run) execute(ctx context.Context) error {
	m := r.cfg.Workers
	r.stats.PerWorker = make([]WorkerStats, m)
	if len(r.units) == 0 {
		return nil
	}
	r.store.SetTargetSharers(r.sharers)
	defer r.store.SetTargetSharers(nil)
	r.workers = make([]workerState, m+1)
	verdicts := make([]compare.UnitVerdict, len(r.units))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := r.nextWorker()
		if w < 0 {
			break
		}
		ws := &r.workers[w]
		seq, ok := r.dq.pop(w)
		if !ok && r.cfg.Stealing {
			seq, ok = r.dq.steal(w)
		}
		if !ok {
			ws.done = true
			continue
		}
		if r.cfg.Chaos.Enabled && w == r.cfg.Chaos.Worker && ws.units >= r.cfg.Chaos.AfterUnits {
			// Chaos death: the in-flight unit goes back on the deque —
			// stealable by peers, drained by the coordinator as a last
			// resort — and the worker leaves without a verdict for it, so
			// the unit's eventual verdict is recorded exactly once.
			r.dq.push(w, seq)
			ws.died, ws.done = true, true
			continue
		}
		var err error
		if verdicts[seq], err = r.executeUnit(ctx, ws, seq); err != nil {
			return fmt.Errorf("shard: worker %d: %w", w, err)
		}
	}

	// A dying worker returns its in-flight unit to its deque. Peers
	// usually re-steal it, but if every other worker already saw a
	// globally-empty scheduler and left, the coordinator executes the
	// leftovers itself — degraded throughput, never a dropped verdict.
	cs := &r.workers[m]
	for _, seq := range r.dq.drain() {
		var err error
		if verdicts[seq], err = r.executeUnit(ctx, cs, seq); err != nil {
			return fmt.Errorf("shard: coordinator drain: %w", err)
		}
	}
	r.stats.CoordinatorUnits = cs.units

	// Which worker ran a unit is the schedule's business; the fold runs in
	// unit sequence order, so every accumulated slice is the same whatever
	// the schedule was. The units of one (pair, field) were cut in one go
	// (stepPartition), so they are consecutive: each fold list is handed
	// everything it gets in one call and is allocated once.
	var parts [][]int64
	for i := 0; i < len(r.units); {
		pair, field := r.units[i].pair, r.units[i].field
		f := r.ms.Fold(pair)
		parts = parts[:0]
		for ; i < len(r.units) && r.units[i].pair == pair && r.units[i].field == field; i++ {
			parts = append(parts, verdicts[i].Diffs)
			f.Changed += verdicts[i].Changed
			f.Unverified += verdicts[i].Unverified
		}
		f.Add(field, parts...)
	}

	var makespan time.Duration
	for w := 0; w < m; w++ {
		ws := &r.workers[w]
		pw := WorkerStats{
			Units:        ws.units,
			Steals:       r.dq.stealsBy[w],
			StolenUnits:  r.dq.stolenBy[w],
			IOVirtual:    ws.ioVirtual,
			CompVirtual:  ws.compVirtual,
			BytesRead:    ws.read().BytesRead,
			PeakInFlight: ws.peakInFlight,
			Died:         ws.died,
		}
		if pw.Died {
			r.stats.WorkerFailures++
		}
		r.stats.Steals += pw.Steals
		r.stats.StolenUnits += pw.StolenUnits
		r.stats.PerWorker[w] = pw
		makespan = max(makespan, pw.Virtual())
	}
	r.stats.MakespanVirtual = makespan + cs.clock()
	for w := range r.workers {
		ws := &r.workers[w]
		r.stats.ReadVirtual += ws.ioVirtual
		r.stats.TotalVirtual += ws.clock()
		r.stats.PeakInFlight = max(r.stats.PeakInFlight, ws.peakInFlight)
	}
	return nil
}

// nextWorker returns the live worker with the lowest (clock, id), or -1
// once every worker has left the schedule.
func (r *run) nextWorker() int {
	best := -1
	for w := 0; w < r.cfg.Workers; w++ {
		if ws := &r.workers[w]; !ws.done && (best == -1 || ws.clock() < r.workers[best].clock()) {
			best = w
		}
	}
	return best
}
