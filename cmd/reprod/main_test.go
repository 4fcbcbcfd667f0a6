package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/aio"
	"repro/internal/pfs"
	"repro/internal/synth"
)

const (
	testEps   = 1e-5
	testChunk = 4096
)

// seedStore writes three one-checkpoint runs — run2 identical to run1,
// run3 diverged beyond ε — and builds their Merkle metadata.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 8 << 10
	fields := []repro.FieldSpec{{Name: "x", DType: repro.Float32, Count: elems}}
	dataA := synth.FieldF32(elems, 1)
	pert := synth.DefaultPerturb(2)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2
	pert.BlockElems = 512
	pert.ChangedFrac = 0.2
	pert.UntouchedFrac = 0.5
	dataDiv := synth.PerturbF32(dataA, pert)
	ctx := context.Background()
	for run, data := range map[string][]byte{"run1": dataA, "run2": dataA, "run3": dataDiv} {
		meta := repro.Checkpoint{RunID: run, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := repro.WriteCheckpoint(store, meta, [][]byte{data}); err != nil {
			t.Fatal(err)
		}
		name := repro.CheckpointName(run, 10, 0)
		opts := repro.Options{Epsilon: testEps, ChunkSize: testChunk}
		if _, _, err := repro.BuildAndSave(ctx, store, name, opts); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func ckptName(run string) string { return repro.CheckpointName(run, 10, 0) }

// postJSON posts v and decodes the response body into out (if non-nil).
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// getJSON fetches url and decodes into out (if non-nil).
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// waitVerdict long-polls a job to completion and returns its status.
func waitVerdict(t *testing.T, base string, id uint64) jobStatusBody {
	t.Helper()
	var st jobStatusBody
	resp := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/wait?timeoutMs=30000", base, id), &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait job %d: status %d", id, resp.StatusCode)
	}
	if st.State != "done" {
		t.Fatalf("job %d did not finish: %+v", id, st)
	}
	return st
}

// jobStatusBody mirrors service.JobStatus on the wire.
type jobStatusBody struct {
	ID        uint64 `json:"id"`
	State     string `json:"state"`
	Verdict   string `json:"verdict"`
	ExitCode  int    `json:"exitCode"`
	Error     string `json:"error"`
	DiffCount int64  `json:"diffCount"`
	Degraded  bool   `json:"degraded"`
}

// TestReprodSmoke drives the daemon end to end over a real loopback
// listener: health, run registration (including the 409 conflict),
// compare/group/shard submissions mapping onto the reprocmp verdict
// contract, the 422 binding rejection, and graceful drain on SIGTERM.
func TestReprodSmoke(t *testing.T) {
	dir := seedStore(t)
	pf := filepath.Join(t.TempDir(), "port")
	stop := make(chan os.Signal, 1)
	var stdout, stderr bytes.Buffer
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-store", dir, "-addr", "127.0.0.1:0", "-portfile", pf}, stop, &stdout, &stderr)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(pf); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote portfile; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + addr

	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Register run1's binding; identical re-registration is a no-op,
	// a conflicting ε is a 409 and changes nothing.
	bind := map[string]any{"runId": "run1", "epsilon": testEps, "chunkSize": testChunk}
	if resp := postJSON(t, base+"/v1/runs", bind, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/v1/runs", bind, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register identical: status %d", resp.StatusCode)
	}
	conflict := map[string]any{"runId": "run1", "epsilon": 1e-4}
	if resp := postJSON(t, base+"/v1/runs", conflict, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting register: status %d, want 409", resp.StatusCode)
	}
	var listed []map[string]any
	if resp := getJSON(t, base+"/v1/runs", &listed); resp.StatusCode != http.StatusOK || len(listed) != 1 {
		t.Fatalf("list runs: status %d, %d bindings", resp.StatusCode, len(listed))
	}

	// Clean pair → verdict 0; divergent pair → verdict 2.
	var accepted jobStatusBody
	req := jobRequest{Kind: "compare", A: ckptName("run1"), B: ckptName("run2"), Epsilon: testEps, ChunkSize: testChunk}
	if resp := postJSON(t, base+"/v1/jobs", req, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit clean compare: status %d", resp.StatusCode)
	}
	if st := waitVerdict(t, base, accepted.ID); st.ExitCode != 0 || st.Verdict != "clean" {
		t.Fatalf("clean pair verdict: %+v", st)
	}
	req.B = ckptName("run3")
	if resp := postJSON(t, base+"/v1/jobs", req, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit divergent compare: status %d", resp.StatusCode)
	}
	if st := waitVerdict(t, base, accepted.ID); st.ExitCode != 2 || st.DiffCount == 0 {
		t.Fatalf("divergent pair verdict: %+v", st)
	}

	// Group and shard kinds ride the same contract.
	greq := jobRequest{Kind: "group", Baseline: ckptName("run1"), Runs: []string{ckptName("run2"), ckptName("run3")}, Epsilon: testEps, ChunkSize: testChunk}
	if resp := postJSON(t, base+"/v1/jobs", greq, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit group: status %d", resp.StatusCode)
	}
	if st := waitVerdict(t, base, accepted.ID); st.ExitCode != 2 {
		t.Fatalf("group verdict: %+v", st)
	}
	sreq := jobRequest{Kind: "shard", A: ckptName("run1"), B: ckptName("run3"), Epsilon: testEps, ChunkSize: testChunk, ShardWorkers: 2}
	if resp := postJSON(t, base+"/v1/jobs", sreq, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit shard: status %d", resp.StatusCode)
	}
	if st := waitVerdict(t, base, accepted.ID); st.ExitCode != 2 {
		t.Fatalf("shard verdict: %+v", st)
	}

	// A submission contradicting run1's bound ε is rejected before any
	// work runs.
	bad := jobRequest{Kind: "compare", A: ckptName("run1"), B: ckptName("run2"), Epsilon: 1e-4, ChunkSize: testChunk}
	if resp := postJSON(t, base+"/v1/jobs", bad, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ε-mismatch submit: status %d, want 422", resp.StatusCode)
	}

	// Unknown jobs and malformed IDs are client errors.
	if resp := getJSON(t, base+"/v1/jobs/999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/v1/jobs/xyz", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad job id: status %d, want 400", resp.StatusCode)
	}

	// Graceful drain: SIGTERM → serve loop exits, plane closes, exit 0.
	stop <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "drained and closed") {
		t.Fatalf("shutdown log missing: %s", stdout.String())
	}
}

// gateBackend delegates pricing to the real engine only after the gate
// opens, letting the test hold a comparison in flight deterministically.
type gateBackend struct {
	gate  <-chan struct{}
	inner aio.Backend
}

func (g *gateBackend) Name() string { return "gate:" + g.inner.Name() }

func (g *gateBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return pfs.Cost{}, 0, ctx.Err()
	}
	return g.inner.Price(ctx, f, reqs)
}

// TestServerBackpressure saturates a one-slot plane through a gated
// comparison and asserts the HTTP mapping of admission control: 429 with
// a Retry-After header and the virtual price in the body.
func TestServerBackpressure(t *testing.T) {
	dir := seedStore(t)
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	plane := repro.NewPlane(repro.PlaneConfig{MaxInFlight: 1, MaxQueued: 1, TenantPending: 1})
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer func() {
		release()
		if err := plane.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	}()
	srv := newServer(plane, store)

	// Hold the only slot: a divergent pair must read chunks in stage 2,
	// and the gated backend blocks that read until released.
	sess := plane.Open("default")
	job, err := sess.Submit(store, repro.JobSpec{
		Kind: repro.JobCompare,
		A:    ckptName("run1"),
		B:    ckptName("run3"),
		Options: repro.Options{
			Epsilon:   testEps,
			ChunkSize: testChunk,
			Backend:   &gateBackend{gate: gate, inner: repro.DefaultBackend()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The tenant's quota (1 pending) is now spent: an HTTP submission for
	// the same tenant is priced and rejected, never executed.
	body, _ := json.Marshal(jobRequest{Kind: "compare", A: ckptName("run1"), B: ckptName("run2"), Epsilon: testEps, ChunkSize: testChunk})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb struct {
		Error        string `json:"error"`
		RetryAfterMs int64  `json:"retryAfterMs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.RetryAfterMs <= 0 || eb.Error == "" {
		t.Fatalf("429 body missing price: %+v", eb)
	}

	// Releasing the gate lets the held job publish its verdict, and the
	// freed quota admits the retried submission.
	release()
	<-job.Done()
	if job.Status().ExitCode != 2 {
		t.Fatalf("gated job verdict: %+v", job.Status())
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("retried submit: status %d, want 202 (body %s)", rec.Code, rec.Body.String())
	}
}

// TestMetricsStateResidentSet: GET /v1/metrics reports the daemon's
// resident set, split into anonymous and file-mapped bytes, both nonzero
// on Linux.
func TestMetricsStateResidentSet(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the resident set is read from Linux's /proc/self/status")
	}
	store, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	plane := repro.NewPlane(repro.PlaneConfig{})
	defer func() {
		if err := plane.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	}()
	rec := httptest.NewRecorder()
	newServer(plane, store).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	var mb metricsBody
	if err := json.Unmarshal(rec.Body.Bytes(), &mb); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("status %d, decode error %v: %s", rec.Code, err, rec.Body.String())
	}
	if mb.RSSAnonBytes <= 0 || mb.RSSFileBytes <= 0 {
		t.Errorf("resident set: %d anonymous bytes, %d file-mapped, want both > 0 (body %s)", mb.RSSAnonBytes, mb.RSSFileBytes, rec.Body.String())
	}
}
