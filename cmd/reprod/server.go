package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/compare"
)

// server is the HTTP surface over one plane and one store. Each request
// opens its tenant's session on the plane; jobs are indexed by their
// plane-unique ID for polling. When the daemon runs with -journal, the
// verdicts recovered from the ledger sit in the same map as done jobs — a
// completed job survives kill -9 without recomputation.
type server struct {
	plane *repro.Plane
	store *repro.Store
	mux   *http.ServeMux

	// drain closes when graceful shutdown begins: in-flight long-polls
	// wake up and answer (final verdict if published, clean 503
	// otherwise) instead of hanging into the HTTP shutdown deadline.
	drain     chan struct{}
	drainOnce sync.Once

	mu   sync.Mutex
	jobs map[uint64]*repro.Job
}

func newServer(plane *repro.Plane, store *repro.Store) *server {
	s := &server{
		plane: plane,
		store: store,
		mux:   http.NewServeMux(),
		drain: make(chan struct{}),
		jobs:  make(map[uint64]*repro.Job),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/runs", s.handleRegister)
	s.mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleJobWait)
	return s
}

// adopt installs a journal recovery into the job map: ledger verdicts as
// done jobs (served, never recomputed) and re-admitted jobs, each under
// its original ID.
func (s *server) adopt(rec *repro.PlaneRecovery) {
	if rec == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, r := range rec.Ledger {
		s.jobs[id] = repro.LedgerJob(r)
	}
	for _, job := range rec.Resumed {
		s.jobs[job.ID()] = job
	}
}

// beginDrain wakes every in-flight long-poll; idempotent.
func (s *server) beginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// jsonErrorWriter guarantees the error contract: any response the
// handlers did not shape themselves (the mux's own 404/405, for
// example) is rewritten as the uniform JSON error body instead of
// net/http's text/plain default.
type jsonErrorWriter struct {
	http.ResponseWriter
	intercepted bool
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	// The handlers' own errors arrive with the JSON Content-Type already
	// set and pass through. net/http's internals (the mux's 404/405 via
	// http.Error) set text/plain before calling WriteHeader, so matching
	// only an empty Content-Type would miss exactly the responses this
	// wrapper exists for.
	ct := w.Header().Get("Content-Type")
	if status >= 400 && (ct == "" || strings.HasPrefix(ct, "text/plain")) {
		w.intercepted = true
		w.Header().Del("X-Content-Type-Options")
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(status)
		body, _ := json.Marshal(errorBody{Error: http.StatusText(status)})
		_, _ = w.ResponseWriter.Write(append(body, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		// Swallow the handler's plain-text body; the JSON body is
		// already written.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
}

// session opens a session for the request's tenant; an empty tenant
// parameter maps to the "default" tenant. Bindings and quotas live with
// the tenant on the plane, so a session per request loses nothing.
func (s *server) session(r *http.Request) *repro.Session {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = "default"
	}
	return s.plane.Open(tenant)
}

// writeJSON emits one compact JSON document with the given status: a done
// job's status carries its account and steps, and indenting them costs
// the served path more than the encoding itself.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterMs carries the virtual backpressure price of an
	// admission rejection (429 responses only).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// writeError maps the service error taxonomy onto HTTP:
// *AdmissionError → 429 with a Retry-After header, *BindingError → the
// caller's chosen binding status (409 register conflict, 422 submission
// contradiction), ErrPlaneClosed → 503, anything else → 400. Every
// branch writes the JSON errorBody with Content-Type set.
func writeError(w http.ResponseWriter, err error, bindingStatus int) {
	var adm *repro.AdmissionError
	if errors.As(err, &adm) {
		// HTTP Retry-After is whole seconds; round the virtual price up
		// so a compliant client never resubmits early. The exact price
		// rides in the JSON body.
		secs := int64((adm.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:        adm.Error(),
			RetryAfterMs: adm.RetryAfter.Milliseconds(),
		})
		return
	}
	var bind *repro.BindingError
	if errors.As(err, &bind) {
		writeJSON(w, bindingStatus, errorBody{Error: bind.Error()})
		return
	}
	if errors.Is(err, repro.ErrPlaneClosed) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsBody is the GET /v1/metrics document: per-tenant admission
// counters plus plane-, memory- and journal-level gauges.
type metricsBody struct {
	Tenants      []repro.TenantAdmission `json:"tenants"`
	PeakInFlight int                     `json:"peakInFlight"`
	// The daemon's resident set, split into anonymous memory and pages of
	// mapped files (its binary, and the views comparisons and captures
	// read); absent where /proc/self/status is.
	RSSAnonBytes int64           `json:"rss_anon_bytes,omitempty"`
	RSSFileBytes int64           `json:"rss_file_bytes,omitempty"`
	Journal      *journalMetrics `json:"journal,omitempty"`
}

type journalMetrics struct {
	Name      string `json:"name"`
	Seq       uint64 `json:"seq"`
	SizeBytes int64  `json:"sizeBytes"`
	Wedged    string `json:"wedged,omitempty"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := metricsBody{
		Tenants:      s.plane.AdmissionMetrics(),
		PeakInFlight: s.plane.PeakInFlight(),
	}
	body.RSSAnonBytes, body.RSSFileBytes = residentSet()
	if jn := s.plane.Journal(); jn != nil {
		jm := &journalMetrics{Name: jn.Name(), Seq: jn.Seq(), SizeBytes: jn.Size()}
		if err := jn.Wedged(); err != nil {
			jm.Wedged = err.Error()
		}
		body.Journal = jm
	}
	writeJSON(w, http.StatusOK, body)
}

// residentSet returns the process's resident anonymous and file-mapped
// bytes (RssAnon and RssFile of /proc/self/status), or zeros where that
// file is absent.
func residentSet() (anon, file int64) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, val, _ := strings.Cut(line, ":")
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
		switch {
		case err != nil:
		case key == "RssAnon":
			anon = kb << 10
		case key == "RssFile":
			file = kb << 10
		}
	}
	return anon, file
}

// maxBodyBytes bounds a POST body. A binding or a job names a handful of
// checkpoints; what a body carries ends up in memory and, for a job, in a
// journal record whose size replay bounds (framelog.MaxPayload).
const maxBodyBytes = 1 << 20

// readBody decodes one JSON request body of at most maxBodyBytes into v.
// It answers the request itself when it cannot: 413 for a body over the
// bound, 400 for one that does not decode.
func readBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{Error: "bad " + what + " JSON: " + err.Error()})
	}
	return err == nil
}

// handleRegister installs an immutable run binding for the tenant.
// Registering the identical binding again is a no-op 200; a conflicting
// one is a 409 and changes nothing.
func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var b repro.RunBinding
	if !readBody(w, r, "binding", &b) {
		return
	}
	if err := s.session(r).Register(b); err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, b)
}

func (s *server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.session(r).Bindings())
}

// jobRequest is the submission body: the job's checkpoint names plus the
// comparison knobs the daemon exposes.
type jobRequest struct {
	Kind     string   `json:"kind"` // "compare" | "group" | "shard"
	A        string   `json:"a,omitempty"`
	B        string   `json:"b,omitempty"`
	Baseline string   `json:"baseline,omitempty"`
	Runs     []string `json:"runs,omitempty"`
	Topology string   `json:"topology,omitempty"` // "star" (default) | "all-pairs"
	// Epsilon is the error bound ε (required).
	Epsilon float64 `json:"epsilon"`
	// ChunkSize overrides the 64 KiB default.
	ChunkSize int `json:"chunkSize,omitempty"`
	// Degrade enables the degradation ladder (verdict 3 instead of a
	// failed job when stage 2 cannot verify every candidate chunk).
	Degrade bool `json:"degrade,omitempty"`
	// ShardWorkers sizes the simulated fleet of a shard job.
	ShardWorkers int `json:"shardWorkers,omitempty"`
}

func (jr jobRequest) spec() (repro.JobSpec, error) {
	spec := repro.JobSpec{
		Kind:     repro.JobKind(jr.Kind),
		A:        jr.A,
		B:        jr.B,
		Baseline: jr.Baseline,
		Runs:     jr.Runs,
		Options: repro.Options{
			Epsilon:   jr.Epsilon,
			ChunkSize: jr.ChunkSize,
			Degrade:   jr.Degrade,
		},
	}
	spec.Shard.Workers = jr.ShardWorkers
	var err error
	spec.Topology, err = compare.ParseTopology(jr.Topology)
	return spec, err
}

// handleSubmit accepts a job: 202 with the job snapshot when admitted,
// 429 + Retry-After under backpressure, 422 when the submission
// contradicts a run binding or asks for a fleet the engine refuses, 413
// when the body is over maxBodyBytes.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var jr jobRequest
	if !readBody(w, r, "job", &jr) {
		return
	}
	spec, err := jr.spec()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := spec.Shard.Validate(); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	job, err := s.session(r).Submit(s.store, spec)
	if err != nil {
		writeError(w, err, http.StatusUnprocessableEntity)
		return
	}
	s.mu.Lock()
	s.jobs[job.ID()] = job
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, job.Status())
}

// lookupJob parses the {id} path value and resolves it to a job, live or
// recovered from the ledger. It answers the request itself when it
// cannot: 400 for a malformed ID, 404 for an unknown one.
func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) *repro.Job {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job id"})
		return nil
	}
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %d", id)})
	}
	return job
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookupJob(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

// maxWait is the longest a long-poll may park its handler: a timeoutMs
// above it is refused, so no client holds a connection for longer.
const maxWait = 60 * time.Second

// handleJobWait long-polls the verdict: it responds as soon as the job
// publishes, or after timeoutMs (default 30s, at most maxWait) with the
// current snapshot and status 200 either way — the "state" field says
// which. A done job, live or recovered, answers at once. When graceful
// shutdown begins mid-wait, the wait wakes up: the final verdict if the
// job already published, a clean 503 otherwise — never a hung connection.
func (s *server) handleJobWait(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	timeout := 30 * time.Second
	if ms := r.URL.Query().Get("timeoutMs"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 || n > int(maxWait.Milliseconds()) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad timeoutMs: want 0 to %d", maxWait.Milliseconds())})
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-job.Done():
	case <-timer.C:
	case <-r.Context().Done():
	case <-s.drain:
		select {
		case <-job.Done():
			// The verdict beat the drain; serve it.
		default:
			writeError(w, repro.ErrPlaneClosed, 0)
			return
		}
	}
	writeJSON(w, http.StatusOK, job.Status())
}
