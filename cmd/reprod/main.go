// Command reprod serves comparisons over HTTP/JSON: a thin daemon on the
// service plane (internal/service, surfaced through the repro facade).
// Where reprocmp runs one comparison per process, reprod keeps one plane
// — one persistent kernel pool, one persistent ring, the per-tenant run
// catalog — and multiplexes concurrent submissions over it behind
// admission control. Clients register immutable run bindings, submit
// compare/group/shard jobs, and poll (or long-poll) verdicts on the same
// 0/2/3/1 contract reprocmp encodes in its exit codes.
//
// Usage:
//
//	reprod -store DIR [-addr 127.0.0.1:0] [-portfile FILE] [-journal NAME]
//	       [-max-inflight N] [-max-queued N] [-tenant-pending N]
//
// -journal enables the crash-durable job journal and hash-chained
// verdict ledger (internal/wal) at the store-relative NAME
// (conventionally wal/journal.log). On startup the daemon replays the journal: verdicts
// from previous lives are served from the ledger (never recomputed),
// and jobs that were accepted but unfinished when the process died —
// kill -9 included — are re-admitted under their original IDs. Audit
// the chain with reprocmp verify-log / attest.
//
// Endpoints (see server.go):
//
//	GET  /healthz                     liveness
//	GET  /v1/metrics                  per-tenant admission counters, peakInFlight,
//	                                  the resident set (rss_anon_bytes,
//	                                  rss_file_bytes) + journal gauges
//	POST /v1/runs?tenant=T            register a run binding (409 on conflict)
//	GET  /v1/runs?tenant=T            list the tenant's bindings
//	POST /v1/jobs?tenant=T            submit a job (202; 429 + Retry-After
//	                                  under backpressure; 422 on binding
//	                                  violation; 413 on a body over 1 MiB,
//	                                  as on /v1/runs)
//	GET  /v1/jobs/{id}                job status snapshot
//	GET  /v1/jobs/{id}/wait?timeoutMs long-poll the verdict (timeoutMs at
//	                                  most 60000; 400 above)
//
// -portfile writes the bound address after listen succeeds, so scripts
// (and the make-check smoke test) can use -addr 127.0.0.1:0 and discover
// the kernel-assigned port race-free. Shutdown (SIGINT/SIGTERM) is
// graceful and deterministic: stop accepting, drain in-flight jobs
// through Plane.Close, exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

// metricsHelp names what GET /v1/metrics reports, for -h.
const metricsHelp = `
GET /v1/metrics reports (JSON):
  tenants[]            per-tenant accepted / rejected / retryAfterMs
  peakInFlight         most comparisons ever executing at once
  rss_anon_bytes       the daemon's resident anonymous memory (heap,
                       stacks); absent without /proc/self/status
  rss_file_bytes       its resident pages of mapped files: its binary and
                       the page cache the comparisons' views read
  journal              name, seq, sizeBytes, wedged (with -journal)
`

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], stop, os.Stdout, os.Stderr))
}

// newHTTPServer is the daemon's HTTP server: no client holds a connection
// without bound. Headers must arrive in 10 s and a whole request (bodies
// are at most 1 MiB) in 30 s; a response — a long-poll's included, which
// parks at most maxWait — must be written within maxWait and 15 s of the
// request; an idle keep-alive connection is closed after 2 minutes.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      maxWait + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// run is the testable daemon body: it returns the process exit code and
// shuts down cleanly when stop delivers.
func run(args []string, stop <-chan os.Signal, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir           = fs.String("store", "", "store directory (required)")
		addr          = fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
		portfile      = fs.String("portfile", "", "write the bound address here after listen succeeds")
		journal       = fs.String("journal", "", "store-relative journal path enabling the crash-durable job ledger (e.g. "+repro.DefaultJournalName+"; empty disables)")
		maxInFlight   = fs.Int("max-inflight", 0, "concurrent comparisons across all tenants (0 = plane default)")
		maxQueued     = fs.Int("max-queued", 0, "admission queue bound (0 = plane default)")
		tenantPending = fs.Int("tenant-pending", 0, "per-tenant pending-job quota (0 = MaxInFlight)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of reprod:")
		fs.PrintDefaults()
		fmt.Fprint(stderr, metricsHelp)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "reprod: -store is required")
		return 2
	}

	store, err := repro.NewStore(*dir, repro.LustreModel())
	if err != nil {
		fmt.Fprintf(stderr, "reprod: %v\n", err)
		return 1
	}
	plane := repro.NewPlane(repro.PlaneConfig{
		MaxInFlight:   *maxInFlight,
		MaxQueued:     *maxQueued,
		TenantPending: *tenantPending,
	})

	srv := newServer(plane, store)
	if *journal != "" {
		// Replay the journal before listening: ledger verdicts become
		// servable, unfinished jobs re-admit, and only then can clients
		// reach us — recovery is never racing live traffic.
		rec, err := plane.Recover(context.Background(), store, *journal)
		if err != nil {
			fmt.Fprintf(stderr, "reprod: journal recovery: %v\n", err)
			return 1
		}
		srv.adopt(rec)
		fmt.Fprintf(stdout, "reprod: journal %s replayed: %d ledger verdicts, %d jobs re-admitted\n",
			*journal, len(rec.Ledger), len(rec.Resumed))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "reprod: %v\n", err)
		return 1
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "reprod: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "reprod: serving %s on %s\n", *dir, ln.Addr())

	httpSrv := newHTTPServer(srv)
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	var exit int
	select {
	case <-stop:
		// Wake in-flight long-polls first so Shutdown's drain of open
		// requests cannot hang on a 30s wait timeout.
		srv.beginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := httpSrv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "reprod: shutdown: %v\n", err)
			exit = 1
		}
		<-served // Serve has returned ErrServerClosed
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "reprod: serve: %v\n", err)
			exit = 1
		}
	}
	// Drain the plane last: queued jobs fail with ErrPlaneClosed, running
	// comparisons publish their verdicts, the pool and ring are joined.
	if err := plane.Close(); err != nil {
		fmt.Fprintf(stderr, "reprod: close plane: %v\n", err)
		exit = 1
	}
	fmt.Fprintln(stdout, "reprod: drained and closed")
	return exit
}
