// Package engine provides the plan/execute split behind every comparison
// entry point. A planner builds a Plan — a list of typed steps
// (load-metadata, tree-diff, coalesce, stream-verify, report, ...) — and
// Execute runs it in order, with context cancellation checked before
// every step, each step retried under the plan's policy, and a LIFO
// cleanup chain that runs on every exit path, so early-return errors
// can no longer leak checkpoint readers or pooled buffers.
//
// A step prices its time with one call, Exec.Charge, which lands on the
// step's span (Report.Steps) and on a Fig. 6 phase (Report.Breakdown) at
// once, so the two tables cannot disagree. The value of the plan is not
// scheduling cleverness but uniformity: every entry point declares the
// same step vocabulary and gets the same timing tables, the same
// cancellation points, and the same cleanup discipline, instead of
// hand-rolling its own open→load→diff→verify orchestration.
package engine

import (
	"context"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/retry"
)

// StepKind names the type of a plan node. Kinds are the shared vocabulary
// across planners; labels distinguish instances within one plan.
type StepKind string

// The step vocabulary used by the comparison planners.
const (
	// StepSetup opens checkpoints, validates options, allocates state.
	StepSetup StepKind = "setup"
	// StepLoadMetadata loads or builds a Merkle metadata tree.
	StepLoadMetadata StepKind = "load-metadata"
	// StepTreeDiff walks two trees to find candidate chunks (stage 1).
	StepTreeDiff StepKind = "tree-diff"
	// StepCoalesce assembles candidate chunks into batched read plans.
	StepCoalesce StepKind = "coalesce"
	// StepStreamVerify runs the overlapped read+compare pipeline (stage 2).
	StepStreamVerify StepKind = "stream-verify"
	// StepReadFull reads whole fields for blocking host-side comparison.
	StepReadFull StepKind = "read-full"
	// StepPartition groups stage-1 candidate chunks into self-describing
	// shard work units and assigns them to workers (internal/shard).
	StepPartition StepKind = "partition"
	// StepShardExecute runs the coordinator/worker scale-out: workers
	// drain and steal work-unit deques, the coordinator folds verdicts.
	StepShardExecute StepKind = "shard-execute"
	// StepReport assembles the final result from accumulated state.
	StepReport StepKind = "report"
)

// StepFunc is the body of one step. It receives the plan context and the
// executor, through which it registers cleanups and charges virtual time.
type StepFunc func(ctx context.Context, x *Exec) error

type step struct {
	kind  StepKind
	label string
	run   StepFunc
}

// Plan is an ordered list of typed steps. The zero value is an empty plan.
type Plan struct {
	steps []step

	// Retry is the per-step retry policy. A step whose error classifies
	// retry.Transient is re-run after a deterministic virtual backoff,
	// added to the step's span (and to no phase). The zero policy disables
	// retries. The stream reader, which retries its window pricings
	// itself, wraps its exhausted errors as Permanent, so step-level and
	// read-level budgets never multiply.
	Retry retry.Policy
}

// Add appends a step; Execute runs the steps in the order they were added.
func (p *Plan) Add(kind StepKind, label string, run StepFunc) {
	p.steps = append(p.steps, step{kind: kind, label: label, run: run})
}

// Exec is the per-run executor state handed to every step: the LIFO
// cleanup chain, the running step's virtual time, and the report the
// steps' charges build.
type Exec struct {
	cleanups []func()
	virtual  time.Duration
	rep      Report
}

// Defer registers fn on the executor's cleanup chain. Cleanups run in
// LIFO order on every exit path of Execute — success, step error, or
// cancellation — which is what makes early returns leak-free.
func (x *Exec) Defer(fn func()) {
	x.cleanups = append(x.cleanups, fn)
}

// CloseOnExit registers a closer (a checkpoint reader, a file) on the
// cleanup chain. Close errors on the cleanup path are intentionally
// dropped: the primary error — if any — is already on its way out.
func (x *Exec) CloseOnExit(c io.Closer) {
	if c == nil {
		return
	}
	x.Defer(func() { _ = c.Close() })
}

// Charge prices d of virtual time onto the running step's span and onto
// phase p of the plan's breakdown: the one way a step accounts its time.
func (x *Exec) Charge(p metrics.Phase, d time.Duration) {
	x.virtual += d
	x.rep.Breakdown.AddVirtual(p, d)
}

// runCleanups fires the chain LIFO and clears it.
func (x *Exec) runCleanups() {
	for i := len(x.cleanups) - 1; i >= 0; i-- {
		x.cleanups[i]()
	}
	x.cleanups = nil
}

// Report summarizes one executed plan.
type Report struct {
	// Steps is the per-step timing table, in execution order. On failure
	// it covers the steps that ran, including the failed one.
	Steps metrics.StepSpans
	// Breakdown is the Fig. 6 split of the virtual time the steps
	// charged. A step's retry backoff is in its span and in no phase, so
	// the steps' virtual total exceeds the breakdown's by the backoff the
	// plan's retries took.
	Breakdown metrics.Breakdown
}

// Execute runs the plan's steps in order. The context is checked before
// every step, so a canceled plan stops at the next step boundary (steps
// also observe ctx internally through the layers below); the returned
// error is then ctx.Err(). A step whose error classifies Transient is
// re-run under Plan.Retry; errors are returned as the step (or the
// policy, once its budget is spent) returned them. Cleanups registered by
// any step run before Execute returns, on every path.
func Execute(ctx context.Context, p *Plan) (Report, error) {
	x := &Exec{rep: Report{Steps: make(metrics.StepSpans, 0, len(p.steps))}}
	defer x.runCleanups()
	// One closure for the whole plan: run names the step it re-runs.
	var run StepFunc
	attempt := func(int) error { return run(ctx, x) }
	for _, st := range p.steps {
		if err := ctx.Err(); err != nil {
			return x.rep, err
		}
		sw := metrics.NewStopwatch()
		x.virtual, run = 0, st.run
		// Backoff is virtual: priced onto the step, never slept.
		backoff, err := p.Retry.Do(ctx, attempt)
		x.rep.Steps.Add(string(st.kind), st.label, metrics.Span{Wall: sw.Lap(), Virtual: x.virtual + backoff})
		if err != nil {
			return x.rep, err
		}
	}
	return x.rep, nil
}
