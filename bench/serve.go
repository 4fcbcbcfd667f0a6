package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/service"
	"repro/internal/wal"
)

// serveInstance submits compare jobs to a real reprod child over loopback
// HTTP and long-polls their verdicts, one tenant and one keep-alive
// connection per client.
type serveInstance struct {
	*planeEnv // the in-process plane that captured the pool; the probes reuse it
	e         *env
	pool      *pool
	dir       string
	daemon    *daemon
	https     []*http.Client
	status429 atomic.Int64
}

// jobRequest and jobStatus mirror cmd/reprod's wire documents.
type jobRequest struct {
	Kind      string  `json:"kind"`
	A         string  `json:"a"`
	B         string  `json:"b"`
	Epsilon   float64 `json:"epsilon"`
	ChunkSize int     `json:"chunkSize"`
}

type jobStatus struct {
	ID        uint64 `json:"id"`
	State     string `json:"state"`
	ExitCode  int    `json:"exitCode"`
	Error     string `json:"error"`
	DiffCount int64  `json:"diffCount"`
}

func tenant(c int) string { return "t" + strconv.Itoa(c) }

func setupServeSparse(ctx context.Context, e *env, dir string) (_ instance, err error) {
	storeDir := filepath.Join(dir, "store")
	pe, p, err := setupPool(ctx, e, storeDir, sparseShape)
	if err != nil {
		return nil, err
	}
	s := &serveInstance{planeEnv: pe, e: e, pool: p, dir: dir}
	defer func() {
		if err != nil {
			_ = s.close() // the set-up error is the one to report
		}
	}()
	if s.daemon, err = startDaemon(ctx, e, storeDir, dir); err != nil {
		return nil, err
	}
	for c := 0; c < e.procs; c++ {
		cl := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		s.https = append(s.https, cl)
		for _, run := range p.runIDs {
			b := service.Binding{RunID: run, Epsilon: p.shape.eps, ChunkSize: p.shape.chunk}
			code, _, err := s.call(ctx, cl, http.MethodPost, "/v1/runs?tenant="+tenant(c), b, nil)
			if err != nil {
				return nil, err
			}
			if code != http.StatusOK {
				return nil, fmt.Errorf("register %s for %s: status %d", run, tenant(c), code)
			}
		}
	}
	return s, nil
}

func (s *serveInstance) clients() int           { return len(s.https) }
func (s *serveInstance) digest() murmur3.Digest { return s.pool.digest }
func (s *serveInstance) bytesPerOp() int64      { return 2 * s.pool.shape.bytesPerRun() }

func (s *serveInstance) childPID() int {
	if s.daemon == nil {
		return 0
	}
	return s.daemon.pid()
}

func (s *serveInstance) close() error {
	var err error
	if s.daemon != nil {
		err = s.daemon.stop()
	}
	for _, cl := range s.https {
		cl.CloseIdleConnections()
	}
	if cerr := s.plane.Close(); err == nil {
		err = cerr
	}
	return err
}

// call makes one JSON round trip and decodes a 2xx body into out. It
// returns the status and, for a 429, the Retry-After to honour.
func (s *serveInstance) call(ctx context.Context, cl *http.Client, method, path string, in, out any) (int, time.Duration, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.daemon.base+path, body)
	if err != nil {
		return 0, 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		retryAfter = time.Duration(max(secs, 1)) * time.Second
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	// Drain so the keep-alive connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, retryAfter, err
}

func (s *serveInstance) op(ctx context.Context, c, i int, tr *tracer) (time.Duration, error) {
	k := 1 + i%poolVariants
	cl := s.https[c]
	req := jobRequest{Kind: "compare", A: s.pool.names[0], B: s.pool.names[k], Epsilon: s.pool.opts.Epsilon, ChunkSize: s.pool.opts.ChunkSize}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()

	root := tr.begin("op", "bench", i, -1)
	defer tr.end(root)
	t0 := time.Now()
	var st jobStatus
	refused := false
	for {
		sp := tr.begin("http.submit", "http", i, root)
		code, retryAfter, err := s.call(ctx, cl, http.MethodPost, "/v1/jobs?tenant="+tenant(c), req, &st)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			return 0, fmt.Errorf("submit: status %d", code)
		}
		// Refused under backpressure: honour Retry-After, resubmit, and
		// count the op as failed whatever the verdict.
		refused = true
		s.status429.Add(1)
		timer := time.NewTimer(retryAfter)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return 0, ctx.Err()
		}
	}
	sp := tr.begin("http.wait", "http", i, root)
	path := fmt.Sprintf("/v1/jobs/%d/wait?timeoutMs=%d", st.ID, requestTimeout.Milliseconds())
	code, _, err := s.call(ctx, cl, http.MethodGet, path, nil, &st)
	tr.end(sp)
	wall := time.Since(t0)
	switch {
	case err != nil:
		return 0, err
	case code != http.StatusOK || st.State != "done":
		return 0, fmt.Errorf("wait job %d: status %d, state %q", st.ID, code, st.State)
	case st.DiffCount != s.pool.diffs[k]:
		return 0, fmt.Errorf("job %d: diffCount %d, oracle %d", st.ID, st.DiffCount, s.pool.diffs[k])
	case (st.ExitCode == service.VerdictDivergent.ExitCode()) != (s.pool.diffs[k] > 0) || st.Error != "":
		return 0, fmt.Errorf("job %d: exit code %d (%s) with %d oracle diffs", st.ID, st.ExitCode, st.Error, s.pool.diffs[k])
	case refused:
		return 0, fmt.Errorf("job %d: refused with 429 before it was admitted", st.ID)
	}
	return wall, nil
}

// daemonMetrics mirrors the fields of GET /v1/metrics the probes read.
type daemonMetrics struct {
	Tenants []struct {
		Accepted int64 `json:"accepted"`
		Rejected int64 `json:"rejected"`
	} `json:"tenants"`
	PeakInFlight int `json:"peakInFlight"`
	Journal      struct {
		SizeBytes int64 `json:"sizeBytes"`
	} `json:"journal"`
}

func (s *serveInstance) layers(ctx context.Context, spans []span, out map[string]float64) error {
	var err error
	if out["http.submit_ms_p50"], err = medianOf(durations(spans, "http.submit"), time.Millisecond); err != nil {
		return err
	}
	if out["http.wait_ms_p50"], err = medianOf(durations(spans, "http.wait"), time.Millisecond); err != nil {
		return err
	}
	out["http.status_429"] = float64(s.status429.Load())

	cl := s.https[0]
	d, err := timed(10*probeReps, func() error {
		code, _, err := s.call(ctx, cl, http.MethodGet, "/healthz", nil, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", code)
		}
		return err
	})
	if err != nil {
		return err
	}
	out["http.healthz_us_p50"] = us(d)

	var dm daemonMetrics
	if code, _, err := s.call(ctx, cl, http.MethodGet, "/v1/metrics", nil, &dm); err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics: status %d: %v", code, err)
	}
	var accepted, rejected int64
	for _, t := range dm.Tenants {
		accepted += t.Accepted
		rejected += t.Rejected
	}
	out["service.peak_inflight"] = float64(dm.PeakInFlight)
	if accepted+rejected > 0 {
		out["service.rejected_frac"] = float64(rejected) / float64(accepted+rejected)
	}
	if accepted > 0 {
		out["wal.bytes_per_job"] = float64(dm.Journal.SizeBytes) / float64(accepted)
	}
	out["proc.peak_rss_mb"] = peakRSSMB(s.daemon.pid())

	// What the served verdicts cost on the virtual clock: the job API
	// carries no virtual time yet, so the same comparisons run in-process
	// on the same store, after the daemon has let go of it.
	if err := s.daemon.stop(); err != nil {
		return err
	}
	var virt time.Duration
	for k := 1; k <= poolVariants; k++ {
		s.store.EvictAll()
		res, err := s.sess.Compare(ctx, s.store, s.pool.names[0], s.pool.names[k], s.pool.opts)
		if err != nil {
			return err
		}
		if err := checkPair(res, s.pool.diffs[k]); err != nil {
			return err
		}
		virt += res.VirtualElapsed()
	}
	out["op_virtual_ms"] = ms(virt) / poolVariants

	// Recovery: restart on the journal the window grew; the daemon
	// replays it before it listens.
	t0 := time.Now()
	if _, err := wal.Verify(ctx, s.store, journalName); err != nil {
		return fmt.Errorf("verify journal: %w", err)
	}
	out["wal.verify_ms"] = ms(time.Since(t0))
	if s.daemon, err = startDaemon(ctx, s.e, s.store.Root(), s.dir); err != nil {
		return fmt.Errorf("restart on the journal: %w", err)
	}
	out["wal.recover_ms"] = ms(s.daemon.ready)

	if err := probeJournal(ctx, filepath.Join(s.dir, "walprobe"), out); err != nil {
		return err
	}
	return s.probeSubmit(ctx, out)
}

// probeJournal times Journal.Append on a scratch journal.
func probeJournal(ctx context.Context, dir string, out map[string]float64) error {
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := wal.Open(ctx, store, journalName)
	if err != nil {
		return err
	}
	rec := wal.Record{Type: wal.TypeAccepted, Tenant: "t0", Kind: "compare", Names: []string{"r0.ckpt", "r1.ckpt"}, Epsilon: 1e-5, ChunkSize: 4096, ToolVersion: wal.ToolVersion}
	walls := make([]time.Duration, 0, 2000)
	for i := 0; i < cap(walls); i++ {
		rec.Job = uint64(i + 1)
		t0 := time.Now()
		_, err := j.Append(rec)
		walls = append(walls, time.Since(t0))
		if err != nil {
			return fmt.Errorf("journal append probe: %w", err)
		}
	}
	out["wal.append_us_p50"], err = medianOf(walls, time.Microsecond)
	return err
}

// probeSubmit times Session.Submit and the verdict on an in-process
// journaled plane over the same store: the service and wal layers
// without HTTP.
func (s *serveInstance) probeSubmit(ctx context.Context, out map[string]float64) (err error) {
	plane := service.New(service.Config{Workers: s.e.procs})
	defer func() {
		if cerr := plane.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := plane.Recover(ctx, s.store, "wal/probe.log"); err != nil {
		return err
	}
	sess := plane.Open("probe")
	spec := service.JobSpec{Kind: service.JobCompare, A: s.pool.names[0], B: s.pool.names[1], Options: s.pool.opts}
	var submits, dones []time.Duration
	for r := 0; r < 2*probeReps; r++ {
		t0 := time.Now()
		job, err := sess.Submit(s.store, spec)
		submits = append(submits, time.Since(t0))
		if err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
		dones = append(dones, time.Since(t0))
		if res := job.Result(); res == nil || res.DiffCount != s.pool.diffs[1] {
			return fmt.Errorf("submit probe: job %d disagrees with the oracle", job.ID())
		}
	}
	if out["service.submit_us_p50"], err = medianOf(submits, time.Microsecond); err != nil {
		return err
	}
	out["service.submit_to_done_ms_p50"], err = medianOf(dones, time.Millisecond)
	return err
}
