// Command serve runs the survey as a service: a resident HTTP server that
// holds a warm aggregate and answers every analysis/report product without
// the batch binaries' load-scan-exit cycle. It loads its aggregate from one
// of three sources:
//
//   - -spills 'dir/*.spill'   cold-start from a pipeline run's spill files
//   - -load survey.log        cold-start from a saved log (format auto-detected)
//   - -coordinator :9000      start empty and act as the distributed-survey
//     coordinator: workers (pipeline -worker) stream lease commits in and
//     the served tables fill in mid-survey
//
// Exactly one source is required. -sites/-seed must match the data, just
// like cmd/report; in coordinator mode -rounds/-profile additionally pick
// the survey the workers crawl (match them to the pipeline flags you would
// have used).
//
// Usage:
//
//	serve -addr :8080 -sites 1000 -seed 42 -spills 'sp/*.spill'
//	serve -addr :8080 -sites 1000 -seed 42 -load survey.log
//	serve -addr :8080 -sites 1000 -seed 42 -coordinator :9000
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests (bounded by -drain), cancels the coordinator so
// workers see a clean close instead of a reset, and releases the study's
// pooled runtimes before exiting.
//
// The server is hardened for untrusted traffic: http.Server read/write/
// idle timeouts, a per-request render deadline (-request-timeout → 503),
// per-client token-bucket rate limiting (-rate/-burst → 429 with
// Retry-After), single-flight render coalescing with a -max-renders cap,
// epoch-keyed ETag/If-None-Match revalidation (polling dashboards get
// 304s), optional gzip for /report, and a Prometheus-text /metrics
// endpoint. See docs/OPERATIONS.md "Serving untrusted traffic".
//
// Endpoints: /api/top-features, /api/feature-deltas, /api/standards,
// /api/headlines, /api/complexity, /api/rounds, /report, /healthz,
// /statusz, /metrics. See docs/OPERATIONS.md for the runbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run owns every resource the server acquires. It is the only function
// allowed to return to main's os.Exit path, so each acquisition below is
// paired with a defer (or handed to the drain sequence at the bottom) —
// the unpaired-resource shape repolint's releasepair analyzer flags in
// library code. The previous version called os.Exit from arbitrary
// depths, skipping study.Close and leaving workers mid-lease on SIGTERM.
func run() error {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		sites       = flag.Int("sites", 1000, "ranking size (must match the data)")
		seed        = flag.Int64("seed", 42, "deterministic seed (must match the data)")
		rounds      = flag.Int("rounds", 5, "visits per (site, configuration); crawled in coordinator mode, must match the survey that produced -spills/-load data")
		profile     = flag.String("profile", "all", "blocking profile: none, adblock, ghostery, blocking, or all (must match the data / desired live survey)")
		spillsGlob  = flag.String("spills", "", "load the aggregate from spill files matching this glob")
		loadPath    = flag.String("load", "", "load the aggregate from this saved log file (format auto-detected)")
		coordinator = flag.String("coordinator", "", "act as distributed-survey coordinator on this address; workers fill the served aggregate live")
		leaseSites  = flag.Int("lease-sites", 64, "sites per lease in coordinator mode")
		heartbeat   = flag.Duration("heartbeat", 10*time.Second, "worker heartbeat timeout in coordinator mode")
		checkpoint  = flag.String("checkpoint", "", "coordinator mode: journal committed leases to this file; a restart over it resumes the survey")
		drain       = flag.Duration("drain", 10*time.Second, "how long to wait for in-flight requests on shutdown")

		requestTimeout = flag.Duration("request-timeout", 15*time.Second, "per-request render deadline; past it the client gets 503 (0 disables)")
		readTimeout    = flag.Duration("read-timeout", 10*time.Second, "http.Server ReadTimeout: max time to read a request, headers included")
		writeTimeout   = flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout: max time to write a response")
		idleTimeout    = flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout: how long keep-alive connections may sit idle")
		rate           = flag.Float64("rate", 0, "per-client rate limit in requests/second; exceeding it returns 429 with Retry-After (0 disables)")
		burst          = flag.Int("burst", 0, "per-client burst capacity when -rate is set (default: 2x rate, minimum 1)")
		maxRenders     = flag.Int("max-renders", 0, "max concurrently executing renders; identical queries coalesce regardless (0 = GOMAXPROCS)")
		gzipOn         = flag.Bool("gzip", true, "gzip /report for clients that accept it")
		trustForwarded = flag.Bool("trust-forwarded", false, "rate-limit by the first X-Forwarded-For hop instead of the TCP peer (only behind a trusted proxy)")
	)
	flag.Parse()

	sources := 0
	for _, s := range []string{*spillsGlob, *loadPath, *coordinator} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("serve: exactly one of -spills, -load, -coordinator is required")
	}
	if *checkpoint != "" && *coordinator == "" {
		return fmt.Errorf("serve: -checkpoint applies only in -coordinator mode")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prof, err := blocking.ParseProfile(*profile)
	if err != nil {
		return err
	}
	study, err := core.NewStudy(core.Config{Sites: *sites, Seed: *seed, Rounds: *rounds, Cases: prof.Cases()})
	if err != nil {
		return err
	}
	defer study.Close()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	var agg *stats.Aggregate
	switch {
	case *spillsGlob != "":
		if agg, err = serve.LoadSpills(study, *spillsGlob); err != nil {
			return err
		}
		logf("loaded aggregate from spills %q: %d/%d sites measured", *spillsGlob, agg.MeasuredCount(), agg.NumSites())
	case *loadPath != "":
		if agg, err = serve.LoadLog(study, *loadPath); err != nil {
			return err
		}
		logf("loaded aggregate from log %q: %d/%d sites measured", *loadPath, agg.MeasuredCount(), agg.NumSites())
	default:
		if agg, err = serve.EmptyAggregate(study); err != nil {
			return err
		}
	}

	b := *burst
	if *rate > 0 && b <= 0 {
		b = int(2 * *rate)
		if b < 1 {
			b = 1
		}
	}
	srv, err := serve.New(serve.Config{
		Study:          study,
		Agg:            agg,
		Logf:           logf,
		RequestTimeout: *requestTimeout,
		Rate:           *rate,
		Burst:          b,
		MaxRenders:     *maxRenders,
		Gzip:           *gzipOn,
		TrustForwarded: *trustForwarded,
	})
	if err != nil {
		return err
	}
	if *rate > 0 {
		logf("rate limit: %.3g req/s per client, burst %d", *rate, b)
	}

	// errc collects the first fatal error from either long-running piece;
	// buffered so neither goroutine blocks if the other loses the race.
	errc := make(chan error, 2)

	if *coordinator != "" {
		coord, err := srv.Coordinator(*coordinator, *leaseSites, *heartbeat, *checkpoint)
		if err != nil {
			return err
		}
		logf("coordinator listening on %s (%d leases, %d already merged); serving fills in live",
			coord.Addr(), coord.Leases(), coord.Completed())
		go func() {
			if _, err := coord.Serve(ctx); err != nil {
				errc <- fmt.Errorf("coordinator: %w", err)
				return
			}
			logf("survey complete: all leases merged")
		}()
	}

	// Socket-level deadlines: a peer that trickles its request bytes or
	// never drains its response is bounded here, below the per-request
	// render deadline the middleware enforces.
	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}
	go func() {
		logf("query server listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	var runErr error
	select {
	case <-ctx.Done():
		logf("shutdown signal received; draining for up to %s", *drain)
	case runErr = <-errc:
	}
	stop() // cancels ctx: the coordinator's Serve unwinds its listener and leases

	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
		if runErr == nil {
			runErr = fmt.Errorf("drain: %w", err)
		}
	}
	return runErr
}
