package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/framelog"
	"repro/internal/wal"
)

// TestSubmitOversizedRecordIsASubmissionError: a job whose accepted record
// would be larger than replay accepts (here a 2 MiB checkpoint name — names
// of unregistered runs pass the binding check) fails at Submit like any
// other journal failure: the reservation is rolled back, nothing is
// journaled, the journal is not wedged, and the next submission is
// accepted and chains. (When the journal framed any size, this record was
// accepted, replayed as a hole, and the daemon could not restart.)
func TestSubmitOversizedRecordIsASubmissionError(t *testing.T) {
	ctx := context.Background()
	e := newSvcEnv(t, 4<<10, 7)
	// One pending job per tenant: a leaked reservation would refuse the
	// follow-up submission.
	p := New(Config{TenantPending: 1})
	if _, err := p.Recover(ctx, e.store, ""); err != nil {
		t.Fatal(err)
	}
	s := p.Open("big")
	huge := JobSpec{Kind: JobCompare, A: strings.Repeat("n", 2<<20), B: e.nameB, Options: svcOpts()}
	if job, err := s.Submit(e.store, huge); !errors.Is(err, framelog.ErrTooLarge) || job != nil {
		t.Fatalf("oversized submission: job %v, err %v; want framelog.ErrTooLarge", job, err)
	}
	if jn := p.Journal(); jn.Seq() != 0 || jn.Size() != 0 || jn.Wedged() != nil {
		t.Fatalf("refused submission reached the journal: seq %d, size %d, wedged %v", jn.Seq(), jn.Size(), jn.Wedged())
	}
	if st := s.Stats(); st.Submitted != 1 || st.Rejected != 1 {
		t.Fatalf("session accounting after the refusal: %+v", st)
	}

	job, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameB, Options: svcOpts()})
	if err != nil {
		t.Fatalf("submission after a refused one: %v", err)
	}
	<-job.Done()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := wal.Verify(ctx, e.store, "")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Records != 3 || rep.Holes != 0 || rep.TornTailBytes != 0 || len(rep.PendingJobs) != 0 {
		t.Fatalf("ledger after the refusal: %+v", rep)
	}
}
