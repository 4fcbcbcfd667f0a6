package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro"
)

// goldenChunk is the chunk size of the golden store's metadata: four
// leaves a field, so the default stage-1 start level is the leaf level at
// any executor width and every virtual column is the same on any machine.
const goldenChunk = "8192"

// jsonReports runs every -json report json.golden pins on the seeded
// divergent store and returns each one's output by label.
func jsonReports(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	dir := seedStore(t, true)
	var out bytes.Buffer
	for _, ck := range []string{ck1, ck2} {
		if err := run(context.Background(), []string{"hash", "-store", dir, "-ckpt", ck, "-eps", "1e-5", "-chunk", goldenChunk}, &out); err != nil {
			t.Fatal(err)
		}
	}
	reports := map[string]json.RawMessage{}
	for _, c := range []struct {
		label string
		args  []string
	}{
		{"compare-merkle", []string{"compare", "-a", ck1, "-b", ck2, "-v"}},
		{"compare-direct", []string{"compare", "-a", ck1, "-b", ck2, "-method", "direct"}},
		{"compare-allclose", []string{"compare", "-a", ck1, "-b", ck2, "-method", "allclose"}},
		{"shard", []string{"shard", "-a", ck1, "-b", ck2}},
		{"history", []string{"history", "-runa", "run1", "-runb", "run2"}},
	} {
		out.Reset()
		args := append(c.args, "-store", dir, "-eps", "1e-5", "-chunk", goldenChunk, "-json")
		if err := run(context.Background(), args, &out); !errors.Is(err, errDivergent) {
			t.Fatalf("%s: %v, want the divergent verdict", c.label, err)
		}
		reports[c.label] = append(json.RawMessage(nil), out.Bytes()...)
	}
	return reports
}

// TestJSONReportsKeepParentKeys holds the -json reports to the ones the
// parent of the Account refactor printed (testdata/json.golden, written by
// that commit): every key it printed is present with the same value, at
// any depth, wall time aside. Keys may be added.
func TestJSONReportsKeepParentKeys(t *testing.T) {
	raw, err := os.ReadFile("testdata/json.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := jsonReports(t)
	for label, w := range want {
		var g any
		if err := json.Unmarshal(got[label], &g); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		keepsKeys(t, label, w, g)
	}
}

// keepsKeys reports every value of want that got does not carry.
func keepsKeys(t *testing.T, path string, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: %v, want an object", path, got)
			return
		}
		for k, wv := range w {
			if k == "wallMicros" {
				continue
			}
			if gv, ok := g[k]; ok {
				keepsKeys(t, path+"."+k, wv, gv)
			} else {
				t.Errorf("%s.%s: missing (parent printed %v)", path, k, wv)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s: %v, want %d elements", path, got, len(w))
			return
		}
		for i := range w {
			keepsKeys(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i])
		}
	default:
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: %v, parent printed %v", path, got, want)
		}
	}
}

// attestReports installs the parent-written journal
// (internal/wal/testdata/parent.journal) in a store and returns attest
// -json of every job it holds, in job order.
func attestReports(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("../../internal/wal/testdata/parent.journal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, filepath.FromSlash(repro.DefaultJournalName))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := repro.OpenJournal(context.Background(), store, "")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []uint64
	for _, r := range rep.Records {
		if r.Type == repro.WALAccepted {
			jobs = append(jobs, r.Job)
		}
	}
	var out bytes.Buffer
	for _, job := range jobs {
		if err := run(context.Background(), []string{"attest", "-store", dir, "-job", strconv.FormatUint(job, 10), "-json"}, &out); err != nil {
			t.Fatalf("attest job %d: %v", job, err)
		}
	}
	return out.Bytes()
}

// TestAttestParentJournal: attest -json prints, byte for byte, what the
// parent printed for every job of its own journal.
func TestAttestParentJournal(t *testing.T) {
	want, err := os.ReadFile("testdata/attest.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := attestReports(t); !bytes.Equal(got, want) {
		t.Errorf("attest -json differs from the parent's:\n got %s\nwant %s", got, want)
	}
}
