package main

// Durability and contract tests for the daemon: the uniform JSON error
// surface, the long-poll/shutdown race, and the kill -9 smoke that
// proves a verdict survives the process (the wal-smoke make target).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// assertJSONError decodes resp's body as the uniform error document and
// checks the Content-Type contract every error response must honor.
func assertJSONError(t *testing.T, label string, status int, header http.Header, body []byte) {
	t.Helper()
	if ct := header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json (body %q)", label, ct, body)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Errorf("%s: body is not the JSON error document: %v (body %q)", label, err, body)
		return
	}
	if eb.Error == "" {
		t.Errorf("%s: error document with empty error field (body %q)", label, body)
	}
	if status == http.StatusTooManyRequests && header.Get("Retry-After") == "" {
		t.Errorf("%s: 429 without Retry-After header", label)
	}
}

// TestErrorResponseContract sweeps every error status the daemon can
// produce — including the mux's own 404/405, which net/http would
// answer in text/plain without the jsonErrorWriter — and asserts each
// one is application/json carrying the uniform error body, with
// Retry-After on every 429.
func TestErrorResponseContract(t *testing.T) {
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

	// Bind run1 so a contradicting submission can earn its 422, and park
	// a completed job so the bad-timeoutMs branch of wait is reachable.
	sess := plane.Open("default")
	if err := sess.Register(repro.RunBinding{RunID: "run1", Epsilon: testEps, ChunkSize: testChunk}); err != nil {
		t.Fatal(err)
	}
	done, err := sess.Submit(store, repro.JobSpec{
		Kind: repro.JobCompare, A: ckptName("run1"), B: ckptName("run2"),
		Options: repro.Options{Epsilon: testEps, ChunkSize: testChunk},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done.Done()
	srv.mu.Lock()
	srv.jobs[done.ID()] = done
	srv.mu.Unlock()

	jobBody := func(jr jobRequest) string {
		b, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"mux route miss", "GET", "/v1/nope", "", http.StatusNotFound},
		{"mux method miss on runs", "DELETE", "/v1/runs", "", http.StatusMethodNotAllowed},
		{"mux method miss on jobs", "PUT", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"malformed job id", "GET", "/v1/jobs/xyz", "", http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/999999999", "", http.StatusNotFound},
		{"malformed job id on wait", "GET", "/v1/jobs/xyz/wait", "", http.StatusBadRequest},
		{"unknown job on wait", "GET", "/v1/jobs/999999999/wait", "", http.StatusNotFound},
		{"bad wait timeout", "GET", fmt.Sprintf("/v1/jobs/%d/wait?timeoutMs=soon", done.ID()), "", http.StatusBadRequest},
		{"wait timeout over the cap", "GET", fmt.Sprintf("/v1/jobs/%d/wait?timeoutMs=%d", done.ID(), maxWait.Milliseconds()+1), "", http.StatusBadRequest},
		{"wait timeout of 24 days", "GET", fmt.Sprintf("/v1/jobs/%d/wait?timeoutMs=2147483647", done.ID()), "", http.StatusBadRequest},
		{"bad binding JSON", "POST", "/v1/runs", "{", http.StatusBadRequest},
		{"conflicting binding", "POST", "/v1/runs", `{"runId":"run1","epsilon":0.5}`, http.StatusConflict},
		{"bad job JSON", "POST", "/v1/jobs", "{", http.StatusBadRequest},
		{"unknown topology", "POST", "/v1/jobs", jobBody(jobRequest{Kind: "group", Baseline: ckptName("run1"), Runs: []string{ckptName("run2")}, Topology: "ring", Epsilon: testEps}), http.StatusBadRequest},
		{"unknown job kind", "POST", "/v1/jobs", jobBody(jobRequest{Kind: "fuzz", Epsilon: testEps}), http.StatusBadRequest},
		{"binding contradiction", "POST", "/v1/jobs", jobBody(jobRequest{Kind: "compare", A: ckptName("run1"), B: ckptName("run2"), Epsilon: 0.5, ChunkSize: testChunk}), http.StatusUnprocessableEntity},
		{"shard fleet over the maximum", "POST", "/v1/jobs", jobBody(jobRequest{Kind: "shard", A: ckptName("run1"), B: ckptName("run2"), Epsilon: testEps, ChunkSize: testChunk, ShardWorkers: 1 << 20}), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.want, rec.Body.String())
			}
			assertJSONError(t, tc.name, rec.Code, rec.Header(), rec.Body.Bytes())
		})
	}

	// The 429 needs a saturated plane: hold the only slot with a gated
	// divergent comparison, then overflow the tenant's pending quota.
	t.Run("backpressure", func(t *testing.T) {
		held, err := sess.Submit(store, repro.JobSpec{
			Kind: repro.JobCompare, A: ckptName("run1"), B: ckptName("run3"),
			Options: repro.Options{
				Epsilon: testEps, ChunkSize: testChunk,
				Backend: &gateBackend{gate: gate, inner: repro.DefaultBackend()},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs",
			strings.NewReader(jobBody(jobRequest{Kind: "compare", A: ckptName("run1"), B: ckptName("run2"), Epsilon: testEps, ChunkSize: testChunk}))))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("saturated submit: status %d, want 429 (body %s)", rec.Code, rec.Body.String())
		}
		assertJSONError(t, "backpressure", rec.Code, rec.Header(), rec.Body.Bytes())
		release()
		<-held.Done()
	})
}

// TestHTTPServerBoundsConnections: the daemon's server bounds every phase
// of a connection, and its write deadline outlasts the longest wait a
// handler may park for.
func TestHTTPServerBoundsConnections(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("unbounded phase: header %v, read %v, idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout <= maxWait {
		t.Errorf("write timeout %v does not outlast the longest wait, %v", s.WriteTimeout, maxWait)
	}
}

// TestPostBodiesRefused is the edge's table: malformed, truncated,
// wrong-type and oversized bodies on both POST endpoints each earn the
// uniform JSON error — 413 for a body over maxBodyBytes, 400 otherwise —
// and leave nothing behind: no binding registered, no record journaled.
func TestPostBodiesRefused(t *testing.T) {
	dir := seedStore(t)
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	plane := repro.NewPlane(repro.PlaneConfig{})
	defer func() {
		if err := plane.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	}()
	if _, err := plane.Recover(context.Background(), store, repro.DefaultJournalName); err != nil {
		t.Fatal(err)
	}
	srv := newServer(plane, store)

	// Valid JSON, of the right shape, one byte over the bound: only the
	// size can be what refuses it.
	padded := func(prefix string) string {
		return prefix + strings.Repeat("n", maxBodyBytes+1-len(prefix)-len(`"}`)) + `"}`
	}
	bodies := []struct {
		name string
		runs string // body for POST /v1/runs
		jobs string // body for POST /v1/jobs
		want int
	}{
		{"empty", "", "", http.StatusBadRequest},
		{"not JSON", "runId=run9", "kind=compare", http.StatusBadRequest},
		{"truncated", `{"runId":"run9","epsil`, `{"kind":"compare","a":"x/iter0010.rank0`, http.StatusBadRequest},
		{"wrong top-level type", `["run9"]`, `"compare"`, http.StatusBadRequest},
		{"wrong field type", `{"runId":9,"epsilon":1e-5}`, `{"kind":"compare","a":1,"b":2,"epsilon":1e-5}`, http.StatusBadRequest},
		{"number out of range", `{"runId":"run9","epsilon":1e999}`, `{"kind":"compare","a":"a","b":"b","chunkSize":1e99}`, http.StatusBadRequest},
		{"oversized", padded(`{"runId":"`), padded(`{"kind":"compare","epsilon":1e-5,"b":"b","a":"`), http.StatusRequestEntityTooLarge},
		// Refused for its content as soon as that is seen, well before the bound.
		{"oversized and malformed", strings.Repeat("{", maxBodyBytes+1), strings.Repeat("[", 2*maxBodyBytes), http.StatusBadRequest},
	}
	for _, tc := range bodies {
		for path, body := range map[string]string{"/v1/runs": tc.runs, "/v1/jobs": tc.jobs} {
			t.Run(tc.name+" "+path, func(t *testing.T) {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
				if rec.Code != tc.want {
					t.Fatalf("status %d, want %d (body %.200s)", rec.Code, tc.want, rec.Body.String())
				}
				assertJSONError(t, tc.name, rec.Code, rec.Header(), rec.Body.Bytes())
			})
		}
	}
	if jn := plane.Journal(); jn.Seq() != 0 || jn.Size() != 0 {
		t.Fatalf("refused bodies reached the journal: seq %d, %d bytes", jn.Seq(), jn.Size())
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs", nil))
	var bound []repro.RunBinding
	if err := json.Unmarshal(rec.Body.Bytes(), &bound); err != nil || len(bound) != 0 {
		t.Fatalf("refused bodies registered bindings: %s (%v)", rec.Body.String(), err)
	}
	// A body exactly at the bound is read whole and judged on its content.
	atBound := padded(`{"runId":"`)
	atBound = atBound[:len(atBound)-3] + `"}`
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs", strings.NewReader(atBound)))
	if len(atBound) != maxBodyBytes || rec.Code == http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body was refused for its size: status %d", len(atBound), rec.Code)
	}
}

// TestDrainLongPollRace pins the shutdown contract for in-flight waits:
// a long-poll standing at drain time gets the final verdict when the
// job already published, a clean JSON 503 when it did not — never a
// connection that hangs into the HTTP shutdown deadline. Exercised over
// a real listener so the waits genuinely block, and in both orders plus
// a deliberate race (run under -race via `make race`).
func TestDrainLongPollRace(t *testing.T) {
	dir := seedStore(t)
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	orders := []string{"drain-first", "verdict-first", "concurrent"}
	for _, order := range orders {
		t.Run(order, func(t *testing.T) {
			plane := repro.NewPlane(repro.PlaneConfig{MaxInFlight: 1})
			gate := make(chan struct{})
			var openGate sync.Once
			release := func() { openGate.Do(func() { close(gate) }) }
			srv := newServer(plane, store)
			ts := httptest.NewServer(srv)
			defer func() {
				release()
				ts.Close()
				if err := plane.Close(); err != nil {
					t.Errorf("plane close: %v", err)
				}
			}()

			sess := plane.Open("default")
			job, err := sess.Submit(store, repro.JobSpec{
				Kind: repro.JobCompare, A: ckptName("run1"), B: ckptName("run3"),
				Options: repro.Options{
					Epsilon: testEps, ChunkSize: testChunk,
					Backend: &gateBackend{gate: gate, inner: repro.DefaultBackend()},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.mu.Lock()
			srv.jobs[job.ID()] = job
			srv.mu.Unlock()

			type outcome struct {
				status int
				header http.Header
				body   []byte
				err    error
			}
			const waiters = 4
			results := make(chan outcome, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/wait?timeoutMs=30000", ts.URL, job.ID()))
					if err != nil {
						results <- outcome{err: err}
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					results <- outcome{status: resp.StatusCode, header: resp.Header, body: body}
				}()
			}
			// Let the waiters reach the select before the shutdown fires.
			time.Sleep(100 * time.Millisecond)

			switch order {
			case "drain-first":
				srv.beginDrain()
			case "verdict-first":
				release()
				<-job.Done()
				srv.beginDrain()
			case "concurrent":
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); srv.beginDrain() }()
				go func() { defer wg.Done(); release() }()
				wg.Wait()
			}

			for i := 0; i < waiters; i++ {
				select {
				case out := <-results:
					if out.err != nil {
						t.Fatalf("waiter failed: %v", out.err)
					}
					switch out.status {
					case http.StatusOK:
						if order == "drain-first" {
							t.Fatalf("gated job served a verdict before it could publish: %s", out.body)
						}
						var st jobStatusBody
						if err := json.Unmarshal(out.body, &st); err != nil {
							t.Fatalf("wait body: %v (%q)", err, out.body)
						}
						if st.State != "done" || st.ExitCode != 2 {
							t.Fatalf("drained wait returned a non-final verdict: %+v", st)
						}
					case http.StatusServiceUnavailable:
						if order == "verdict-first" {
							t.Fatalf("published verdict answered 503: %s", out.body)
						}
						assertJSONError(t, order, out.status, out.header, out.body)
					default:
						t.Fatalf("wait status %d, want 200 or 503 (body %s)", out.status, out.body)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("long-poll hung through drain")
				}
			}
		})
	}
}

// TestWALKillRestartSmoke is the wal-smoke gate: a real daemon process
// with -journal takes a job to its verdict, dies by SIGKILL, and a
// restarted process serves that verdict from the hash-chained ledger —
// no recomputation — with reprocmp verify-log green over the surviving
// chain.
func TestWALKillRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	bin := t.TempDir()
	reprod := filepath.Join(bin, "reprod")
	reprocmp := filepath.Join(bin, "reprocmp")
	for tool, path := range map[string]string{"./": reprod, "../reprocmp": reprocmp} {
		out, err := exec.Command("go", "build", "-o", path, tool).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", tool, err, out)
		}
	}

	dir := seedStore(t)
	journal := "wal/journal.log"
	startDaemon := func(pf string) *exec.Cmd {
		cmd := exec.Command(reprod, "-store", dir, "-journal", journal, "-addr", "127.0.0.1:0", "-portfile", pf)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	awaitPort := func(pf string) string {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if b, err := os.ReadFile(pf); err == nil && len(b) > 0 {
				return "http://" + strings.TrimSpace(string(b))
			}
			if time.Now().After(deadline) {
				t.Fatal("daemon never wrote portfile")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Life 1: submit a divergent compare, wait for the verdict (which is
	// durable before it is ever published), then kill -9.
	pf1 := filepath.Join(t.TempDir(), "port1")
	life1 := startDaemon(pf1)
	base := awaitPort(pf1)
	var accepted jobStatusBody
	req := jobRequest{Kind: "compare", A: ckptName("run1"), B: ckptName("run3"), Epsilon: testEps, ChunkSize: testChunk}
	if resp := postJSON(t, base+"/v1/jobs", req, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	verdict := waitVerdict(t, base, accepted.ID)
	if verdict.ExitCode != 2 {
		t.Fatalf("life 1 verdict: %+v", verdict)
	}
	if err := life1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = life1.Wait() // reaps the SIGKILLed child; its error is the point

	// Life 2: the restarted daemon must serve the verdict from the
	// ledger under the original job ID.
	pf2 := filepath.Join(t.TempDir(), "port2")
	life2 := startDaemon(pf2)
	defer func() {
		_ = life2.Process.Kill()
		_ = life2.Wait()
	}()
	base = awaitPort(pf2)
	var replayed jobStatusBody
	if resp := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", base, accepted.ID), &replayed); resp.StatusCode != http.StatusOK {
		t.Fatalf("ledger status: %d", resp.StatusCode)
	}
	if replayed.State != "done" || replayed.ExitCode != verdict.ExitCode || replayed.DiffCount != verdict.DiffCount {
		t.Fatalf("ledger verdict %+v does not match life 1's %+v", replayed, verdict)
	}
	var mb struct {
		Journal *struct {
			Seq uint64 `json:"seq"`
		} `json:"journal"`
	}
	if resp := getJSON(t, base+"/v1/metrics", &mb); resp.StatusCode != http.StatusOK || mb.Journal == nil || mb.Journal.Seq == 0 {
		t.Fatalf("metrics journal gauge missing: %+v", mb)
	}

	// Graceful stop, then audit the chain the two lives left behind.
	if err := life2.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := life2.Wait(); err != nil {
		t.Fatalf("life 2 shutdown: %v", err)
	}
	var audit bytes.Buffer
	cmpCmd := exec.Command(reprocmp, "verify-log", "-store", dir, "-journal", journal,
		"-recompute", fmt.Sprint(accepted.ID))
	cmpCmd.Stdout = &audit
	cmpCmd.Stderr = &audit
	if err := cmpCmd.Run(); err != nil {
		t.Fatalf("verify-log: %v\n%s", err, audit.String())
	}
	attest := exec.Command(reprocmp, "attest", "-store", dir, "-journal", journal, "-job", fmt.Sprint(accepted.ID))
	attest.Stdout = &audit
	attest.Stderr = &audit
	if err := attest.Run(); err != nil {
		t.Fatalf("attest: %v\n%s", err, audit.String())
	}
}
