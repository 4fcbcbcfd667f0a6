package wal

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/framelog"
	"repro/internal/murmur3"
)

// frameHeader is where a frame's payload starts, for the tamper tests in
// wal_test.go, which predate internal/framelog and stay unedited as the
// proof that the journal's on-disk behaviour did not move.
const frameHeader = framelog.HeaderSize

// TestJournalRefusesOversizedRecord: a record replay would refuse to read
// is refused by Append before anything is written, and costs nothing but
// itself — the journal does not wedge, the next record chains, and the
// next life opens a clean chain. (When Append framed any size, this record
// replayed as a hole, its successor no longer chained, and the journal
// refused to open with ErrTampered.)
func TestJournalRefusesOversizedRecord(t *testing.T) {
	ctx := context.Background()
	store := newTestStore(t)
	j, _, err := Open(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	huge := Record{Type: TypeAccepted, Job: 1, Tenant: "t1", Kind: "compare",
		Names: []string{strings.Repeat("n", 2<<20), "runB/iter0010.rank000.ckpt"}}
	if _, err := j.Append(huge); !errors.Is(err, framelog.ErrTooLarge) {
		t.Fatalf("oversized append: %v, want framelog.ErrTooLarge", err)
	}
	if j.Wedged() != nil || j.Size() != 0 || j.Seq() != 0 {
		t.Fatalf("refused append left a mark: wedged %v, size %d, seq %d", j.Wedged(), j.Size(), j.Seq())
	}
	want := appendAll(t, j, jobRecords(2, 0))
	if want[0].Seq != 1 || want[0].Prev != (murmur3.Digest{}) {
		t.Fatalf("record after the refusal is not the genesis record: %+v", want[0])
	}

	_, rep, err := Open(ctx, store, "")
	if err != nil {
		t.Fatalf("reopen after a refused oversized record: %v", err)
	}
	if len(rep.Records) != 3 || rep.Holes != 0 || rep.TornTailBytes != 0 {
		t.Fatalf("replay: %d records, %d holes, %d torn", len(rep.Records), rep.Holes, rep.TornTailBytes)
	}
	if _, err := Verify(ctx, store, ""); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestJournalRefusesEachPresetChainField: Append is the chain's one writer,
// and this run-time check is all that stands between a caller-set Seq, Prev
// or Digest and the ledger. Each field alone is refused, so is the
// natural mistake — re-appending the completed record a previous Append
// returned — and a refusal writes nothing and does not wedge.
func TestJournalRefusesEachPresetChainField(t *testing.T) {
	ctx := context.Background()
	store := newTestStore(t)
	j, _, err := Open(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	done := appendAll(t, j, jobRecords(1, 0))[0]
	size, seq := j.Size(), j.Seq()
	restarted := done
	restarted.Type = TypeStarted
	for name, rec := range map[string]Record{
		"Seq":                {Type: TypeAccepted, Job: 2, Seq: seq + 1},
		"Prev":               {Type: TypeAccepted, Job: 2, Prev: done.Digest},
		"Digest":             {Type: TypeAccepted, Job: 2, Digest: murmur3.Digest{9}},
		"a completed record": restarted,
	} {
		if _, err := j.Append(rec); err == nil {
			t.Errorf("append accepted a caller-set %s", name)
		}
	}
	if j.Wedged() != nil || j.Size() != size || j.Seq() != seq {
		t.Fatalf("refused appends left a mark: wedged %v, size %d → %d, seq %d → %d", j.Wedged(), size, j.Size(), seq, j.Seq())
	}
	if _, err := Verify(ctx, store, ""); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestUndecodableFramedRecordIsTampering: a frame with a good CRC at its
// own offset is not crash damage, so a payload in it that is not a record
// cannot be skipped as a hole.
func TestUndecodableFramedRecordIsTampering(t *testing.T) {
	ctx := context.Background()
	store := newTestStore(t)
	j, _, err := Open(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, jobRecords(1, 0))
	log := framelog.Log{Store: store, Name: DefaultName, Magic: frameMagic, Size: j.Size()}
	if _, err := log.Append([]byte("not a record")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(ctx, store, ""); !errors.Is(err, ErrTampered) {
		t.Fatalf("open: %v, want ErrTampered", err)
	}
}

// installFixture copies a journal written by the parent commit (PR 16,
// before internal/framelog existed) into a fresh store.
func installFixture(t *testing.T, fixture string) (raw []byte, open func() (*Journal, *Replay, error)) {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + fixture)
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore(t)
	if err := os.MkdirAll(store.Root()+"/wal", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(store), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return raw, func() (*Journal, *Replay, error) { return Open(context.Background(), store, "") }
}

// TestParentJournalOpensAndRewritesIdentically: a journal the parent
// commit wrote replays whole, and feeding its records back through Append
// reproduces the parent's file byte for byte — same magic, same frame,
// same payload codec.
func TestParentJournalOpensAndRewritesIdentically(t *testing.T) {
	raw, open := installFixture(t, "parent_journal.log")
	_, rep, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 8 || rep.Holes != 0 || rep.TornTailBytes != 0 {
		t.Fatalf("replay: %d records, %d holes, %d torn", len(rep.Records), rep.Holes, rep.TornTailBytes)
	}
	last := rep.Records[7]
	if last.Kind != "group" || last.Topology != "all-pairs" || last.Workers != 4 || !last.Degrade || len(last.Names) != 3 {
		t.Fatalf("last record lost fields: %+v", last)
	}
	if v := rep.Records[6]; v.Exit != 3 || !v.Degraded || v.UnverifiedChunks != 6 || v.ErrMsg != "msg" || len(v.Roots) != 2 {
		t.Fatalf("verdict record lost fields: %+v", v)
	}

	store := newTestStore(t)
	j, _, err := Open(context.Background(), store, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Records {
		want := r.Digest
		r.Seq, r.Prev, r.Digest = 0, murmur3.Digest{}, murmur3.Digest{}
		got, err := j.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want {
			t.Fatalf("record %d re-encodes to a different payload", got.Seq)
		}
	}
	again, err := os.ReadFile(journalPath(store))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("the journal this commit writes differs from the parent's bytes")
	}
}

// TestParentJournalWithHoleReplays: the parent's own torn append (37 bytes
// kept, then written past by the next life) is one hole here too.
func TestParentJournalWithHoleReplays(t *testing.T) {
	_, open := installFixture(t, "parent_journal_torn.log")
	j, rep, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 8 || rep.Holes != 1 || rep.TornTailBytes != 0 {
		t.Fatalf("replay: %d records, %d holes, %d torn", len(rep.Records), rep.Holes, rep.TornTailBytes)
	}
	if j.Size() != 1845 || j.Seq() != 8 {
		t.Fatalf("journal positioned at size %d seq %d", j.Size(), j.Seq())
	}
}
