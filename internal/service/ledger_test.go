package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/faults"
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
	live, ledger := asMap(job.Status()), asMap(LedgerStatus(rec.Ledger[job.ID()]))
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
