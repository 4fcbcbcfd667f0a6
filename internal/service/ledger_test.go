package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/retry"
	"repro/internal/wal"
)

// unreadableData fails every read of one checkpoint's data region — the
// first transiently, so the retry policy re-prices once, the rest for
// good — and leaves its header and metadata readable.
type unreadableData struct {
	faults.Nop
	name string
	data int64
	mu   sync.Mutex
	seen int
}

var errUnreadable = errors.New("injected: data region unreadable")

func (h *unreadableData) BeforeRead(name string, off int64, _ int) error {
	if name != h.name || off < h.data {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen++; h.seen == 1 {
		return retry.Mark(errUnreadable, retry.Transient)
	}
	return errUnreadable
}

// journalDegradedGroup runs one star group job under Degrade — A against
// B, whose data is unreadable, and against A itself, which stays clean —
// on a journaled plane it closes again; it returns the job and the
// journal's replayed records.
func journalDegradedGroup(t *testing.T, e *svcEnv) (*Job, []wal.Record) {
	t.Helper()
	ctx := context.Background()
	r, _, err := ckpt.OpenReader(e.store, e.nameB)
	if err != nil {
		t.Fatal(err)
	}
	data := r.FieldFileOffset(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	if _, err := p.Recover(ctx, e.store, ""); err != nil {
		t.Fatal(err)
	}
	e.store.SetFaultHook(&unreadableData{name: e.nameB, data: data})
	opts := svcOpts()
	opts.Degrade = true
	job, err := p.Open("acme").Submit(e.store, JobSpec{Kind: JobGroup, Baseline: e.nameA, Runs: []string{e.nameB, e.nameA},
		Topology: compare.TopologyStar, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	e.store.SetFaultHook(nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := job.Group(); rep == nil || rep.UnverifiedChunks == 0 || rep.ReadRetries == 0 {
		t.Fatalf("the group did not degrade through a retry: %+v", job.Status())
	}
	_, rep, err := wal.Open(ctx, e.store, "")
	if err != nil {
		t.Fatal(err)
	}
	return job, rep.Records
}

// TestGroupVerdictRecordKeepsItsEvidence: a degraded group's verdict
// record carries the unverified count its report has. (It used to drop
// it, so attest printed unverified=0 for a group that degraded.)
func TestGroupVerdictRecordKeepsItsEvidence(t *testing.T) {
	e := newSvcEnv(t, 16<<10, 33)
	job, recs := journalDegradedGroup(t, e)
	rec := wal.Classify(recs).Verdicts[job.ID()]
	rep := job.Group()
	if rec.UnverifiedChunks != rep.UnverifiedChunks || rec.ReadRetries != rep.ReadRetries || !rec.Degraded {
		t.Errorf("verdict record: unverified %d, retries %d, degraded %v; report: unverified %d, retries %d",
			rec.UnverifiedChunks, rec.ReadRetries, rec.Degraded, rep.UnverifiedChunks, rep.ReadRetries)
	}
}

// TestLedgerStatusIsTheLiveStatus: after a restart, the status served from
// the ledger says what the live job's status said, on every key the
// verdict record keeps. (It used to keep diffCount and degraded only.)
func TestLedgerStatusIsTheLiveStatus(t *testing.T) {
	e := newSvcEnv(t, 16<<10, 34)
	job, _ := journalDegradedGroup(t, e)
	p := New(Config{})
	rec, err := p.Recover(context.Background(), e.store, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	asMap := func(st JobStatus) map[string]any {
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	live, ledger := asMap(job.Status()), asMap(LedgerJob(rec.Ledger[job.ID()]).Status())
	if ledger["unverifiedChunks"] == nil || ledger["readRetries"] == nil {
		t.Fatalf("ledger status lost the ladder's counts: %v", ledger)
	}
	for _, k := range []string{"id", "kind", "tenant", "state", "verdict", "exitCode", "error",
		"diffCount", "degraded", "unverifiedChunks", "readRetries", "casPrunedChunks"} {
		if !reflect.DeepEqual(ledger[k], live[k]) {
			t.Errorf("%s: ledger %v, live %v", k, ledger[k], live[k])
		}
	}
}

// TestLedgerReplayMatchesOracle makes ledger replay one of the doors the
// stage-2 parity table holds to the element-wise oracle: one pair job per
// row of dettest.Shapes() (but the degrade row, whose corruption is in
// flight) and of dettest.Sequence() (every row of Shapes diverges; its
// clean row does not), journaled, then served after a restart. Each
// recovered job's status carries the exit code and diffCount the oracle
// gives, the count summed over the fields the row compares.
func TestLedgerReplayMatchesOracle(t *testing.T) {
	ctx := context.Background()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	if _, err := p.Recover(ctx, store, ""); err != nil {
		t.Fatal(err)
	}
	type want struct {
		shape string
		exit  int
		diffs int64
	}
	wants := map[uint64]want{}
	for si, sh := range slices.Concat(dettest.Shapes(), dettest.Sequence()) {
		if sh.Degrade {
			continue
		}
		fields, data := dettest.Runs(sh)
		opts := compare.Options{Epsilon: sh.Epsilon(), ChunkSize: sh.Chunk}
		var names []string
		for ri, run := range []string{"A", "B"} {
			runID := fmt.Sprintf("shape%d%s", si, run)
			if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: runID, Iteration: 10, Fields: fields}, data[ri]); err != nil {
				t.Fatal(err)
			}
			m, _, err := compare.Build(fields, data[ri], opts)
			if err != nil {
				t.Fatal(err)
			}
			name := ckpt.Name(runID, 10, 0)
			if _, err := compare.SaveMetadata(store, name, m); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		opts.SliceBytes, opts.Fields = sh.SliceBytes, sh.Fields
		job, err := p.Open("oracle").Submit(store, JobSpec{Kind: JobCompare, A: names[0], B: names[1], Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		w := want{shape: sh.Name, exit: VerdictClean.ExitCode()}
		for _, idx := range dettest.Want(sh, fields, data, 0, 1) {
			w.diffs += int64(len(idx))
		}
		if w.diffs > 0 {
			w.exit = VerdictDivergent.ExitCode()
		}
		wants[job.ID()] = w
		<-job.Done()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p = New(Config{})
	rec, err := p.Recover(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Ledger) != len(wants) || len(rec.Resumed) != 0 {
		t.Fatalf("recovered %d verdicts and %d pending jobs, want %d and 0", len(rec.Ledger), len(rec.Resumed), len(wants))
	}
	for id, w := range wants {
		st := LedgerJob(rec.Ledger[id]).Status()
		if st.Account == nil {
			t.Errorf("%s: ledger serves exit %d and no account (error %q)", w.shape, st.ExitCode, st.Error)
			continue
		}
		if st.ExitCode != w.exit || st.DiffCount != w.diffs {
			t.Errorf("%s: ledger serves exit %d, diffCount %d; the oracle gives exit %d, %d diffs",
				w.shape, st.ExitCode, st.DiffCount, w.exit, w.diffs)
		}
	}
}
