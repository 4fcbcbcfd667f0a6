package wal

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// parentRecords is testdata/parent.records.json: what the commit that
// wrote testdata/parent.journal replayed it to.
type parentRecords struct {
	Records    []Record
	Classified Recovered
}

// TestParentJournalReplaysToParentRecords: the service plane's journal of
// a pair job, a degraded group job and a shard job, and of one verdict
// carrying a non-zero RingFallbacks — written before compare.Account —
// replays to the records and the classification its writer replayed it to.
func TestParentJournalReplaysToParentRecords(t *testing.T) {
	_, open := installFixture(t, "parent.journal")
	_, rep, err := open()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/parent.records.json")
	if err != nil {
		t.Fatal(err)
	}
	var want parentRecords
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if rep.Holes != 0 || rep.TornTailBytes != 0 || len(rep.Records) == 0 {
		t.Fatalf("replay: %d records, %d holes, %d torn", len(rep.Records), rep.Holes, rep.TornTailBytes)
	}
	if !reflect.DeepEqual(rep.Records, want.Records) {
		t.Errorf("records differ from the parent's:\n got %+v\nwant %+v", rep.Records, want.Records)
	}
	if got := Classify(rep.Records); !reflect.DeepEqual(got, want.Classified) {
		t.Errorf("classification differs from the parent's:\n got %+v\nwant %+v", got, want.Classified)
	}
}
