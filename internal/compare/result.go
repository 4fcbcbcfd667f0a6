package compare

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/murmur3"
)

// FieldDiff lists the divergent elements of one checkpoint field.
type FieldDiff struct {
	// Field is the field name.
	Field string `json:"field"`
	// Indices are the element indices whose difference exceeds ε,
	// ascending.
	Indices []int64 `json:"indices"`
}

// Account is what one comparison found and what it cost — the verdict's
// evidence, declared once. A pair's Result and a group's GroupReport
// embed it, the job API and the CLI reports marshal it as it is, and the
// journal's verdict record keeps its verdict and ladder counts.
type Account struct {
	// DiffCount is the total number of divergent elements (-1: diverged,
	// count unknown).
	DiffCount int64 `json:"diffCount"`
	// Degraded reports that the comparison completed on a degraded path:
	// some candidate chunks could not be read (metadata-only verdict) or
	// could not be integrity-verified. Any diffs recorded are real, but
	// absence of diffs is inconclusive.
	Degraded bool `json:"degraded,omitempty"`
	// UnverifiedChunks counts candidate chunks whose content was never
	// cleanly verified: reads that exhausted their retries, or bytes that
	// failed leaf-hash integrity verification even after one re-read.
	// Always 0 unless Options.Degrade is set (strict mode fails instead).
	UnverifiedChunks int `json:"unverifiedChunks,omitempty"`

	// TotalChunks counts all data chunks across fields.
	TotalChunks int `json:"totalChunks"`
	// CandidateChunks counts chunks the hash stage marked as potentially
	// changed (always 0 for the baselines).
	CandidateChunks int `json:"candidateChunks"`
	// ChangedChunks counts candidate chunks that really contained an
	// out-of-bound difference.
	ChangedChunks int `json:"changedChunks"`
	// CASPrunedChunks counts candidate chunks excluded from stage-2
	// scheduling because the content-addressed store proved their verdict
	// without a read: both sides resolved to the same pack extent, or the
	// digest pair's verdict was memoized from an earlier differential
	// comparison. Pruned chunks stay counted in CandidateChunks (and in
	// ChangedChunks when the replayed verdict contained divergence); they
	// are never Unverified. Always 0 outside differential mode.
	CASPrunedChunks int `json:"casPrunedChunks,omitempty"`

	// BytesRead counts data + metadata bytes delivered to the comparator
	// (every member).
	BytesRead int64 `json:"bytesRead"`
	// CheckpointBytes is the raw data size of ONE member's checkpoint.
	CheckpointBytes int64 `json:"checkpointBytes"`
	// MetadataBytes is the serialized Merkle metadata size per member (0
	// for the baselines).
	MetadataBytes int64 `json:"metadataBytes"`
	// ReadRetries counts stage-2 window pricings re-issued under the retry
	// policy.
	ReadRetries int `json:"readRetries,omitempty"`
	// Deprecated: RingFallbacks is always 0 — there is no ring to fall back
	// from, and nothing writes it. It stays until the benchmark stops
	// reporting stream.ring_fallbacks.
	RingFallbacks int `json:"-"`

	// Breakdown is the per-phase cost split of Fig. 6, in virtual time:
	// what the plan's steps charged (engine.Report.Breakdown).
	Breakdown metrics.Breakdown `json:"-"`
	// Steps is the engine's per-step timing table for this comparison's
	// plan, in execution order.
	Steps metrics.StepSpans `json:"steps,omitempty"`
}

// Inconclusive reports whether the comparison degraded: absence of
// divergence then proves nothing.
func (a *Account) Inconclusive() bool { return a.Degraded || a.UnverifiedChunks > 0 }

// addPair folds one pair's verdict and chunk counts into a group's.
func (a *Account) addPair(p *Account) {
	a.DiffCount += p.DiffCount
	a.Degraded = a.Degraded || p.Degraded
	a.UnverifiedChunks += p.UnverifiedChunks
	a.TotalChunks += p.TotalChunks
	a.CandidateChunks += p.CandidateChunks
	a.ChangedChunks += p.ChangedChunks
	a.CASPrunedChunks += p.CASPrunedChunks
}

// Result reports one checkpoint-pair comparison.
type Result struct {
	// Method names the approach ("merkle", "direct", "allclose").
	Method string `json:"method"`
	// Diffs lists the divergent elements per field (empty for AllClose,
	// which only answers the boolean question).
	Diffs []FieldDiff `json:"diffs,omitempty"`
	// TotalElements is the total element count across fields.
	TotalElements int64 `json:"totalElements"`
	// RootA and RootB are the combined Merkle roots of the two compared
	// snapshots (Metadata.CombinedRoot), zero for plans that never load
	// metadata (the direct/allclose baselines). The verdict ledger binds
	// them so a historical verdict's inputs can be re-derived.
	RootA murmur3.Digest `json:"rootA"`
	RootB murmur3.Digest `json:"rootB"`

	Account
}

// FalsePositiveChunks returns candidates that contained no real
// difference — the conservative hash's false positives (Fig. 7b).
func (r *Result) FalsePositiveChunks() int {
	return r.CandidateChunks - r.ChangedChunks
}

// FalsePositiveRate returns false positives over total chunks, the Fig. 7b
// metric.
func (r *Result) FalsePositiveRate() float64 {
	if r.TotalChunks == 0 {
		return 0
	}
	return float64(r.FalsePositiveChunks()) / float64(r.TotalChunks)
}

// MarkedFraction returns the fraction of checkpoint data marked as
// potentially changed by the hash stage, the Fig. 7a metric.
func (r *Result) MarkedFraction() float64 {
	if r.TotalChunks == 0 {
		return 0
	}
	return float64(r.CandidateChunks) / float64(r.TotalChunks)
}

// VirtualElapsed returns the end-to-end virtual runtime.
func (r *Result) VirtualElapsed() time.Duration {
	return r.Breakdown.Total().Virtual
}

// WallElapsed returns the measured wall runtime: every step of the plan.
func (r *Result) WallElapsed() time.Duration {
	return r.Steps.Total().Wall
}

// ThroughputGBps is the paper's throughput metric: the amount of
// checkpoint data compared (both runs) over the total virtual runtime.
func (r *Result) ThroughputGBps() float64 {
	return metrics.Throughput(2*r.CheckpointBytes, r.VirtualElapsed())
}

// Identical reports whether no element exceeded the bound. A degraded
// comparison is never identical: chunks that were unread or unverifiable
// could hide divergence, so the clean verdict requires a clean run.
func (r *Result) Identical() bool {
	return r.DiffCount == 0 && !r.Degraded && r.UnverifiedChunks == 0
}
