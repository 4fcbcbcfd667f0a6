// Package engine provides the plan/execute split behind every comparison
// entry point. A planner builds an explicit Plan — a small DAG of typed
// steps (load-metadata, tree-diff, coalesce, stream-verify, report, ...)
// — and Execute runs it with context cancellation checked before every
// step and a LIFO cleanup chain that runs on every exit path, so
// early-return errors can no longer leak checkpoint readers or pooled
// buffers.
//
// Plans are acyclic by construction: Add only accepts dependencies on
// steps that already exist, so insertion order is always a valid
// topological order and Execute simply runs steps in the order they were
// added. The value of the explicit DAG is not scheduling cleverness but
// uniformity: every entry point declares the same step vocabulary, gets
// the same per-step wall/virtual timing table (Report.Steps), the same
// cancellation points, and the same cleanup discipline, instead of
// hand-rolling its own open→load→diff→verify orchestration.
package engine

import (
	"context"
	"fmt"
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
	// StepCompact rewrites a checkpoint into its compacted form.
	StepCompact StepKind = "compact"
	// StepPartition groups stage-1 candidate chunks into self-describing
	// shard work units and assigns them to workers (internal/shard).
	StepPartition StepKind = "partition"
	// StepShardExecute runs the coordinator/worker scale-out: workers
	// drain and steal work-unit deques, the coordinator folds verdicts.
	StepShardExecute StepKind = "shard-execute"
	// StepReport assembles the final result from accumulated state.
	StepReport StepKind = "report"
)

// StepID identifies a step within its plan (its insertion index).
type StepID int

// StepFunc is the body of one step. It receives the plan context and the
// executor, through which it registers cleanups and prices virtual time.
type StepFunc func(ctx context.Context, x *Exec) error

type step struct {
	kind  StepKind
	label string
	run   StepFunc
}

// Plan is an ordered DAG of typed steps. The zero value is an empty plan.
type Plan struct {
	steps []step

	// Retry is the per-step retry policy. A step whose error classifies
	// retry.Transient is re-run after a deterministic virtual backoff,
	// charged to the step's virtual time. The zero policy disables
	// retries. Inner layers that retry themselves (stream reads, group
	// unions) wrap their exhausted errors as Permanent, so step-level and
	// read-level budgets never multiply.
	Retry retry.Policy
}

// Add appends a step and returns its ID. Dependencies must reference
// previously added steps — the plan is acyclic by construction — so
// execution in insertion order is topological.
func (p *Plan) Add(kind StepKind, label string, run StepFunc, deps ...StepID) StepID {
	id := StepID(len(p.steps))
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("engine: step %q depends on %d, not yet in plan (have %d steps)", label, d, id))
		}
	}
	p.steps = append(p.steps, step{kind: kind, label: label, run: run})
	return id
}

// Exec is the per-run executor state handed to every step: the LIFO
// cleanup chain and the current step's virtual-time accumulator.
type Exec struct {
	cleanups []func()
	virtual  time.Duration
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

// AddVirtual prices virtual time onto the currently running step.
func (x *Exec) AddVirtual(d time.Duration) { x.virtual += d }

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
	// Failed is the label of the step that returned an error or was
	// preempted by cancellation ("" on success).
	Failed string
	// Retries counts step re-runs taken under the plan's retry policy.
	Retries int
}

// Total returns the summed wall/virtual span of all executed steps.
func (r *Report) Total() metrics.Span { return r.Steps.Total() }

// Execute runs the plan's steps in order. The context is checked before
// every step, so a canceled plan stops at the next step boundary (steps
// also observe ctx internally through the layers below); the returned
// error is then ctx.Err(). Step errors are returned unwrapped — the
// Report records which step failed. Cleanups registered by any step run
// before Execute returns, on every path.
func Execute(ctx context.Context, p *Plan) (Report, error) {
	var rep Report
	x := &Exec{}
	defer x.runCleanups()
	for _, st := range p.steps {
		if err := ctx.Err(); err != nil {
			rep.Failed = st.label
			return rep, err
		}
		sw := metrics.NewStopwatch()
		x.virtual = 0
		var err error
		for attempt := 0; ; attempt++ {
			err = st.run(ctx, x)
			if err == nil || !retry.IsTransient(err) {
				break
			}
			d, ok := p.Retry.Next(attempt + 1)
			if !ok {
				err = retry.Exhausted(err, attempt+1)
				break
			}
			// Backoff is virtual: priced onto the step, never slept.
			x.AddVirtual(d)
			rep.Retries++
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				break
			}
		}
		rep.Steps.Add(string(st.kind), st.label, metrics.Span{Wall: sw.Lap(), Virtual: x.virtual})
		if err != nil {
			rep.Failed = st.label
			return rep, err
		}
	}
	return rep, nil
}
