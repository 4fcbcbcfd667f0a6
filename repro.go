// Package repro is a scalable capture-and-comparison toolkit for studying
// the reproducibility of HPC applications, a from-scratch Go
// implementation of "Towards Affordable Reproducibility Using Scalable
// Capture and Comparison of Intermediate Multi-Run Results"
// (MIDDLEWARE '24).
//
// The core idea: instead of comparing the final outputs of two application
// runs — which says nothing about where or when they diverged — capture
// intermediate checkpoints during both runs and compare the checkpoint
// histories. To make that affordable at scale, each checkpoint is
// summarized at capture time into compact Merkle-tree metadata whose
// leaves are error-bounded hashes of fixed-size chunks: two values
// differing by more than the user's absolute error bound ε always hash
// differently, values within ε usually hash identically. Comparing two
// checkpoints then starts as a pruned tree diff that touches no checkpoint
// data at all, and only the few candidate chunks whose hashes differ are
// streamed back from the parallel file system (overlapping I/O with
// comparison) for an exact element-wise check.
//
// # Quick start
//
//	store, _ := repro.NewStore(dir, repro.LustreModel())
//	opts := repro.Options{Epsilon: 1e-6, ChunkSize: 64 << 10}
//
//	// At checkpoint time (both runs):
//	repro.WriteCheckpoint(store, meta, fields)
//	m, _, _ := repro.BuildAndSave(ctx, store, repro.CheckpointName("run1", 10, 0), opts)
//
//	// At analysis time:
//	res, _ := repro.Compare(ctx, store, nameRun1, nameRun2, opts)
//	for _, d := range res.Diffs {
//	    fmt.Println(d.Field, len(d.Indices), "elements diverged")
//	}
//
// See the runnable programs under examples/ for full workflows, including
// driving the bundled HACC-style cosmology simulation, comparing whole
// checkpoint histories, and the continuous-integration golden-tree mode.
//
// # Virtual performance clock
//
// All performance-sensitive layers (PFS, async I/O, device kernels) do
// their real work AND report a virtual duration from a calibrated cost
// model of the paper's evaluation platform (Lustre + A100 GPUs), so the
// performance studies in cmd/experiments reproduce the paper's
// comparative shapes on laptop hardware. Correctness results never depend
// on the virtual clock.
package repro

import (
	"context"
	"sync"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Core comparison API.
type (
	// Options parameterizes metadata construction and comparison.
	Options = compare.Options
	// Result reports one checkpoint-pair comparison.
	Result = compare.Result
	// Account is what a comparison found and what it cost: the verdict's
	// evidence that Result, GroupReport, JobStatus and the reports carry.
	Account = compare.Account
	// FieldDiff lists the divergent elements of one field.
	FieldDiff = compare.FieldDiff
	// Metadata is the compact Merkle representation of a checkpoint.
	Metadata = compare.Metadata
	// BuildStats reports metadata construction cost.
	BuildStats = compare.BuildStats
	// FieldMeta is one field's tree within a Metadata container.
	FieldMeta = compare.FieldMeta
	// Tree is the flattened error-bounded Merkle tree of one field.
	Tree = merkle.Tree
	// Method selects a comparison approach.
	Method = compare.Method
	// HistoryReport is a whole-history multi-run comparison.
	HistoryReport = compare.HistoryReport
	// PairReport is one aligned checkpoint pair within a history.
	PairReport = compare.PairReport
	// Topology selects the pair coverage of a group comparison.
	Topology = compare.Topology
	// GroupReport is an N-run group comparison's outcome.
	GroupReport = compare.GroupReport
	// GroupPairReport is one pair within a group comparison.
	GroupPairReport = compare.GroupPairReport
	// RetryPolicy caps and paces storage retries (Options.Retry).
	RetryPolicy = retry.Policy
)

// Service plane API: lifecycle-owned resources and admission-controlled
// sessions (internal/service). Every one-shot entry point below is a
// thin wrapper over a session on the process-wide default plane, so the
// CLI path and the reprod daemon path execute identical plans.
type (
	// Plane owns the shared comparison resources — one persistent
	// kernel pool, one persistent ring engine, per-store CAS handles,
	// per-ε verdict memos, and the per-tenant run catalog — with
	// deterministic startup/shutdown and a leak-checked Close.
	Plane = service.Plane
	// PlaneConfig sizes a plane: pool/ring shape, global in-flight
	// bound, admission-queue bound, per-tenant quota, and the
	// backpressure price range.
	PlaneConfig = service.Config
	// Session is one tenant's submission surface on a plane: every
	// comparison entry point, plus run registration and per-session
	// outcome statistics.
	Session = service.Session
	// SessionStats counts one session's submissions by outcome.
	SessionStats = service.Stats
	// RunBinding is a run's immutable registration: code ref, params,
	// ε, chunk size, dataset version. Submissions that contradict a
	// binding are rejected before any work runs.
	RunBinding = service.Binding
	// AdmissionError is a backpressure rejection carrying a
	// deterministic virtual RetryAfter.
	AdmissionError = service.AdmissionError
	// BindingError reports a submission contradicting a run binding.
	BindingError = service.BindingError
	// JobSpec describes an asynchronous job submission (Session.Submit).
	JobSpec = service.JobSpec
	// JobKind selects what a submitted job runs.
	JobKind = service.JobKind
	// Job is an asynchronous submission; wait on Done, snapshot with
	// Status.
	Job = service.Job
	// JobStatus is a wire-friendly snapshot of one job (Job.Status);
	// the reprod daemon also synthesizes it from ledger verdicts.
	JobStatus = service.JobStatus
	// JobVerdict is a comparison outcome on the reprocmp exit-code
	// contract (0 clean / 1 error / 2 divergent / 3 degraded).
	JobVerdict = service.Verdict
)

// ErrPlaneClosed is returned by every submission path of a closed plane.
var ErrPlaneClosed = service.ErrPlaneClosed

// LedgerStatus is the status of a job served from the journal's ledger,
// rebuilt from its durable verdict record.
func LedgerStatus(rec WALRecord) JobStatus { return service.LedgerStatus(rec) }

// Asynchronous job kinds (JobSpec.Kind).
const (
	// JobCompare is a two-checkpoint Merkle comparison.
	JobCompare = service.JobCompare
	// JobGroup is an N-run group comparison.
	JobGroup = service.JobGroup
	// JobShard is a subtree-sharded comparison.
	JobShard = service.JobShard
)

// Durability & audit API: the crash-durable job journal and hash-chained
// verdict ledger (internal/wal) the reprod daemon runs on when started
// with -journal, surfaced for the reprocmp attest/verify-log tooling.
type (
	// Journal is the chaining writer over one store-backed journal file.
	Journal = wal.Journal
	// WALRecord is one journal entry: chain coordinates plus the job
	// lifecycle event (accepted / started / verdict) it records.
	WALRecord = wal.Record
	// JournalReplay is what opening an existing journal recovered:
	// the valid chain plus crash-damage accounting.
	JournalReplay = wal.Replay
	// JournalVerifyReport summarizes one full chain walk: record and
	// job counts, pending jobs, crash damage, exactly-once violations.
	JournalVerifyReport = wal.VerifyReport
	// PlaneRecovery is what Plane.Recover reconstructed: the servable
	// verdict ledger and the re-admitted unfinished jobs.
	PlaneRecovery = service.Recovery
	// TenantAdmission is one tenant's cumulative admission counters
	// (GET /v1/metrics on reprod).
	TenantAdmission = metrics.TenantAdmission
)

// ErrJournalTampered reports a journal whose hash chain is broken — a
// record altered or removed after it was written. Crash damage never
// produces it; torn frames replay as visible holes instead.
var ErrJournalTampered = wal.ErrTampered

// DefaultJournalName is the conventional store-relative journal path
// (reprod's -journal flag and reprocmp's -journal flags default to it).
const DefaultJournalName = wal.DefaultName

// Journal record types (WALRecord.Type), in lifecycle order.
const (
	// WALAccepted: the job passed admission, durable before Submit
	// returned.
	WALAccepted = wal.TypeAccepted
	// WALStarted: the job acquired an execution slot.
	WALStarted = wal.TypeStarted
	// WALVerdict: the job's outcome, durable before it was published.
	WALVerdict = wal.TypeVerdict
)

// OpenJournal replays (creating if absent) the named journal on a store
// and returns the chaining writer positioned at the chain head. name ""
// selects DefaultJournalName. A tampered journal refuses to open.
func OpenJournal(ctx context.Context, store *Store, name string) (*Journal, *JournalReplay, error) {
	return wal.Open(ctx, store, name)
}

// VerifyJournal re-walks the named journal's full chain: ErrJournalTampered
// on a broken chain, an error on duplicated or orphaned verdicts, and a
// report of counts, pending jobs, and crash damage otherwise.
func VerifyJournal(ctx context.Context, store *Store, name string) (*JournalVerifyReport, error) {
	return wal.Verify(ctx, store, name)
}

// NewPlane creates a plane owning a fresh pool and ring sized by cfg;
// Close it to join them. The zero Config selects production defaults.
func NewPlane(cfg PlaneConfig) *Plane { return service.New(cfg) }

// localSession lazily opens the default plane's "local" tenant session,
// shared by every one-shot facade call in the process.
var (
	localOnce sync.Once
	local     *service.Session
)

func localSession() *service.Session {
	localOnce.Do(func() { local = service.Default().Open("local") })
	return local
}

// Group-comparison topologies.
const (
	// TopologyStar compares every run against the baseline.
	TopologyStar = compare.TopologyStar
	// TopologyAllPairs compares every run against every other.
	TopologyAllPairs = compare.TopologyAllPairs
)

// Comparison methods.
const (
	// MethodMerkle is the paper's metadata-driven two-stage comparison.
	MethodMerkle = compare.MethodMerkle
	// MethodDirect is the optimized element-wise baseline.
	MethodDirect = compare.MethodDirect
	// MethodAllClose is the naive boolean baseline.
	MethodAllClose = compare.MethodAllClose
)

// Checkpoint capture API.
type (
	// Checkpoint identifies a checkpoint and its field schema.
	Checkpoint = ckpt.Meta
	// FieldSpec describes one captured variable.
	FieldSpec = ckpt.FieldSpec
	// Reader reads checkpoint files.
	Reader = ckpt.Reader
	// Checkpointer captures checkpoints through two storage tiers
	// asynchronously.
	Checkpointer = ckpt.Checkpointer
)

// Storage API.
type (
	// Store is a cost-modelled storage tier backed by a real directory.
	Store = pfs.Store
	// CostModel prices storage operations on the virtual clock.
	CostModel = pfs.CostModel
	// Cost is the resource consumption of storage operations.
	Cost = pfs.Cost
)

// Element types.
type DType = errbound.DType

// Supported element types.
const (
	Float32 = errbound.Float32
	Float64 = errbound.Float64
)

// Device execution API.
type (
	// Executor runs data-parallel kernels.
	Executor = device.Executor
	// DeviceModel prices kernels and transfers on the virtual clock.
	DeviceModel = device.Model
)

// NewStore creates a storage tier rooted at dir with the given cost model.
func NewStore(dir string, model CostModel) (*Store, error) {
	return pfs.NewStore(dir, model)
}

// LustreModel approximates the paper's Lustre parallel file system.
func LustreModel() CostModel { return pfs.LustreModel() }

// NVMeModel approximates node-local NVMe storage.
func NVMeModel() CostModel { return pfs.NVMeModel() }

// GPUModel approximates one NVIDIA A100.
func GPUModel() DeviceModel { return device.GPUModel() }

// CPUModel approximates a single CPU core.
func CPUModel() DeviceModel { return device.CPUModel() }

// NewParallelExecutor returns a spawn-per-loop executor (workers <= 0
// selects GOMAXPROCS). Leaving Options.Exec nil selects the process-wide
// pool, which reuses persistent workers across kernels.
func NewParallelExecutor(workers int) Executor { return device.NewParallel(workers) }

// SerialExecutor returns the single-threaded executor.
func SerialExecutor() Executor { return device.Serial{} }

// NewUringBackend returns an io_uring-style read backend: reads in flight
// up to queueDepth overlap their latencies on the virtual clock, and
// run-A/run-B request batches price as one deep queue.
func NewUringBackend(queueDepth int) *aio.Uring {
	return aio.NewUring(queueDepth)
}

// DefaultBackend returns the default plane's io_uring-style
// engine, the backend the comparison layer builds on when Options.Backend
// is nil (wrapped in read coalescing; see Options.CoalesceMaxGap).
func DefaultBackend() *aio.Uring { return service.Default().Backend() }

// MmapBackend returns the synchronous page-fault read backend.
func MmapBackend() aio.Mmap { return aio.Mmap{} }

// CheckpointName returns the canonical history file name for a checkpoint.
func CheckpointName(runID string, iteration, rank int) string {
	return ckpt.Name(runID, iteration, rank)
}

// WriteCheckpoint encodes a checkpoint synchronously onto a store.
// data[i] must hold exactly meta.Fields[i].Bytes() raw little-endian
// bytes.
func WriteCheckpoint(store *Store, meta Checkpoint, data [][]byte) (Cost, error) {
	return ckpt.WriteCheckpoint(store, meta, data)
}

// NewCheckpointer starts an asynchronous two-tier checkpointer: captures
// are written to the local tier synchronously and flushed to the remote
// tier in the background. Close it to guarantee durability.
func NewCheckpointer(local, remote *Store, flushWorkers int) *Checkpointer {
	return ckpt.NewCheckpointer(local, remote, flushWorkers)
}

// OpenCheckpoint opens a checkpoint file for reading.
func OpenCheckpoint(store *Store, name string) (*Reader, error) {
	r, _, err := ckpt.OpenReader(store, name)
	return r, err
}

// History lists a run's checkpoint file names, ordered by iteration then
// rank.
func History(store *Store, runID string) ([]string, error) {
	return ckpt.History(store, runID)
}

// BuildMetadata constructs Merkle metadata from in-memory field buffers
// (the checkpoint-time path).
func BuildMetadata(fields []FieldSpec, data [][]byte, opts Options) (*Metadata, BuildStats, error) {
	opts, err := service.Default().NormalizeOptions(opts)
	if err != nil {
		return nil, BuildStats{}, err
	}
	return compare.Build(fields, data, opts)
}

// BuildAndSave builds metadata for a checkpoint already on the store and
// saves it alongside under MetadataName(name).
func BuildAndSave(ctx context.Context, store *Store, name string, opts Options) (*Metadata, BuildStats, error) {
	return localSession().BuildAndSave(ctx, store, name, opts)
}

// SaveMetadata writes metadata next to its checkpoint on a store.
func SaveMetadata(store *Store, checkpointName string, m *Metadata) error {
	_, err := compare.SaveMetadata(store, checkpointName, m)
	return err
}

// LoadMetadata reads a checkpoint's saved metadata from a store.
func LoadMetadata(ctx context.Context, store *Store, checkpointName string) (*Metadata, error) {
	m, _, _, err := compare.LoadMetadata(ctx, store, checkpointName)
	return m, err
}

// MetadataName returns the canonical metadata file name for a checkpoint
// file name.
func MetadataName(checkpointName string) string {
	return compare.MetadataName(checkpointName)
}

// Compare runs the paper's two-stage Merkle comparison of one checkpoint
// pair. Both checkpoints and their metadata (see BuildAndSave) must exist
// on the store. Canceling the context stops the comparison at the next
// plan-step, kernel-poll, or pipeline boundary with ctx.Err(); the engine
// closes everything it opened on the way out.
func Compare(ctx context.Context, store *Store, nameA, nameB string, opts Options) (*Result, error) {
	return localSession().Compare(ctx, store, nameA, nameB, opts)
}

// CompareDirect runs the optimized element-wise baseline.
func CompareDirect(ctx context.Context, store *Store, nameA, nameB string, opts Options) (*Result, error) {
	return localSession().CompareDirect(ctx, store, nameA, nameB, opts)
}

// AllClose runs the naive boolean baseline (numpy.allclose with atol=ε,
// rtol=0): true means every element pair is within ε.
func AllClose(ctx context.Context, store *Store, nameA, nameB string, opts Options) (bool, error) {
	return localSession().AllClose(ctx, store, nameA, nameB, opts)
}

// CompareHistories aligns two runs' checkpoint histories on a store and
// compares every pair, reporting the earliest divergence. Histories align
// on the union of data checkpoints and compacted (metadata-only)
// survivors; a pair with a compacted side degrades to the metadata-only
// tree diff. On error or cancellation the returned report holds the pairs
// completed so far.
func CompareHistories(ctx context.Context, store *Store, runA, runB string, method Method, opts Options) (*HistoryReport, error) {
	return localSession().CompareHistories(ctx, store, runA, runB, method, opts)
}

// GroupCompare compares N runs' checkpoints as one group: every member's
// metadata is loaded once and the candidate chunks of pairs sharing a
// member are fetched with one deduplicated batched read per member, so an
// N-run comparison does strictly less PFS I/O than the equivalent
// sequential pairwise comparisons. Member 0 is the baseline; topology
// selects star (baseline vs each run) or all-pairs coverage.
func GroupCompare(ctx context.Context, store *Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return localSession().GroupCompare(ctx, store, baseline, runs, topology, opts)
}

// Subtree-sharded scale-out API (internal/shard).
type (
	// ShardConfig parameterizes the sharded comparison: worker count,
	// per-worker buffer budget, subtree granularity, assignment policy,
	// and work stealing.
	ShardConfig = shard.Config
	// ShardStats reports the sharded execution's schedule: per-worker
	// units, steals, virtual makespan, and buffer high-water marks.
	ShardStats = shard.Stats
	// ShardAssignment selects the subtree-to-worker assignment policy.
	ShardAssignment = shard.Assignment
	// Striping describes the store's simulated OST layout.
	Striping = pfs.Striping
)

// Shard assignment policies.
const (
	// ShardAssignBlock assigns contiguous chunk-key blocks (owner computes).
	ShardAssignBlock = shard.AssignBlock
	// ShardAssignPlacement assigns by the subtree's home OST when the store
	// is striped, keeping each target single-reader.
	ShardAssignPlacement = shard.AssignPlacement
	// ShardAssignRandom assigns uniformly at random (seeded baseline).
	ShardAssignRandom = shard.AssignRandom
)

// ShardCompare runs the two-stage Merkle comparison of Compare with
// stage 2 sharded by Merkle subtree across cfg.Workers simulated workers:
// the coordinator prunes equal subtrees on metadata alone, schedules the
// divergent ones as work units over the fleet in virtual-time order, and
// folds their verdicts into the same Result the single-node path produces
// — bit-identical diffs, roots, and verdicts. The returned stats expose
// the schedule's shape (steals, per-worker clocks, virtual makespan).
func ShardCompare(ctx context.Context, store *Store, nameA, nameB string, cfg ShardConfig, opts Options) (*Result, *ShardStats, error) {
	return localSession().ShardCompare(ctx, store, nameA, nameB, cfg, opts)
}

// CAS is a content-addressed chunk store shared by every run capturing
// differentially onto the same Store: chunks are keyed by their
// ε-quantized leaf digest, so a chunk equal (within ε) to one already
// captured — by a previous iteration or a sibling run — is never written
// twice. The pack is append-only and torn-write safe: a capture that
// fails mid-write leaves an unreferenced hole, never a future dedup hit.
type CAS = cas.Store

// DiffCapturer captures a run's checkpoints differentially through a CAS,
// maintaining each checkpoint's Merkle metadata by incremental update
// (only changed leaves rehash) instead of a full rebuild.
type DiffCapturer = compare.DiffCapturer

// DiffCaptureReport summarizes one differential capture: dedup outcome,
// write cost, and the incremental-update accounting.
type DiffCaptureReport = compare.DiffCaptureReport

// CASMemo caches stage-2 verdicts keyed by full leaf-digest pairs, letting
// repeated differential comparisons replay verified verdicts with zero
// data reads. Sound only for CompareDiff/GroupCompareDiff at a matching ε.
type CASMemo = compare.CASMemo

// OpenCAS opens (or creates) the store's shared chunk pack, replaying its
// index; a torn tail from a crashed capture is ignored, a corrupt index
// record is an error.
func OpenCAS(ctx context.Context, store *Store) (*CAS, error) {
	cs, _, err := cas.Open(ctx, store)
	return cs, err
}

// NewDiffCapturer returns a capturer writing one run's checkpoints
// through the shared CAS. One capturer serves one run; concurrent ranks
// are safe.
func NewDiffCapturer(store *Store, cs *CAS, opts Options) (*DiffCapturer, error) {
	return compare.NewDiffCapturer(store, cs, opts)
}

// NewCASMemo returns a verdict memo for Options.Memo, pinned to ε.
func NewCASMemo(epsilon float64) *CASMemo { return compare.NewCASMemo(epsilon) }

// CompareDiff compares two differentially captured checkpoints: stage 2
// reads candidate chunks from the shared pack in one merged batch, chunks
// sharing a pack extent are pruned as provably identical, and a warmed
// Options.Memo replays previously verified verdicts without any reads.
func CompareDiff(ctx context.Context, store *Store, cs *CAS, nameA, nameB string, opts Options) (*Result, error) {
	return localSession().CompareDiff(ctx, store, cs, nameA, nameB, opts)
}

// GroupCompareDiff compares N differentially captured runs as one plan:
// group-level read dedup (each pack extent fetched once for all pairs)
// composes with CAS pruning and the degradation ladder.
func GroupCompareDiff(ctx context.Context, store *Store, cs *CAS, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return localSession().GroupCompareDiff(ctx, store, cs, baseline, runs, topology, opts)
}

// Analysis characterizes how two checkpoints differ: per-field divergence
// magnitude histograms, used to choose an error bound.
type Analysis = compare.Analysis

// FieldHistogram is one field's divergence profile within an Analysis.
type FieldHistogram = compare.FieldHistogram

// Analyze reads both checkpoints fully and profiles their divergence
// magnitudes per field — the tool for picking ε before committing to it.
func Analyze(ctx context.Context, store *Store, nameA, nameB string) (*Analysis, error) {
	return localSession().Analyze(ctx, store, nameA, nameB)
}

// EvolutionReport profiles how fast one run's state changes relative to ε
// from metadata alone (consecutive-checkpoint tree diffs).
type EvolutionReport = compare.EvolutionReport

// Evolution builds a run's state-evolution profile from saved metadata.
func Evolution(ctx context.Context, store *Store, runID string, opts Options) (*EvolutionReport, error) {
	return localSession().Evolution(ctx, store, runID, opts)
}

// CompactReport summarizes one history-compaction pass.
type CompactReport = compare.CompactReport

// CompactHistory compacts every checkpoint of a run except the keepLatest
// most recent iterations to metadata-only form (the paper's §5 online
// compaction): the data files are removed, the compact Merkle trees stay,
// and CompareTreesOnly keeps every compacted iteration comparable at chunk
// granularity. Metadata is built first where missing.
func CompactHistory(ctx context.Context, store *Store, runID string, keepLatest int, opts Options) (*CompactReport, error) {
	return localSession().CompactHistory(ctx, store, runID, keepLatest, opts)
}

// CompareTreesOnly answers the reproducibility question from metadata
// alone — no checkpoint data is touched, so it works on compacted history.
// Result.DiffCount is 0 for a within-bound pair and -1 (unknown count)
// when candidate chunks differ.
func CompareTreesOnly(ctx context.Context, store *Store, nameA, nameB string, opts Options) (*Result, error) {
	return localSession().CompareTreesOnly(ctx, store, nameA, nameB, opts)
}

// IsCompacted reports whether a checkpoint survives only as metadata. A
// file that exists but cannot be opened is an error, not "compacted".
func IsCompacted(store *Store, name string) (bool, error) {
	return compare.IsCompacted(store, name)
}

// DiffTrees runs the pruned breadth-first tree comparison directly on two
// trees with identical geometry (the metadata-only stage of the method,
// enough to answer "did anything move beyond ε, and in which chunks"
// without any data I/O — the online-comparison building block). It
// returns the indices of chunks whose error-bounded hashes differ. A nil
// executor selects the default parallel one.
func DiffTrees(a, b *Tree, exec Executor) ([]int, error) {
	if exec == nil {
		exec = service.Default().Executor()
	}
	chunks, _, err := merkle.Diff(a, b, a.DefaultStartLevel(exec.Workers()), exec)
	return chunks, err
}
