// Command ucheckerd runs the UChecker scanner as a long-lived
// scan-as-a-service HTTP daemon: a durable job queue backed by the
// crash-safe scan journal, per-tenant admission control with 429 +
// Retry-After load shedding, weighted-fair scheduling, SSE progress
// streaming and Prometheus metrics.
//
// Usage:
//
//	ucheckerd -dir STATE_DIR [flags]
//
// Flags:
//
//	-dir DIR             daemon state directory (job journal, result
//	                     cache, source spool); REQUIRED. Restarting with
//	                     the same -dir resumes every pending job and
//	                     serves finished results without re-scanning.
//	-addr HOST:PORT      listen address (default :8799)
//	-scan-workers N      concurrently running jobs (default 2)
//	-workers N           per-scan worker pool (default: GOMAXPROCS)
//	-interproc NAME      interprocedural strategy: "inline" (default) or
//	                     "summary" (per-function symbolic summaries; the
//	                     summary_*/interp_paths_avoided counters surface
//	                     in /metrics)
//	-max-paths N         symbolic execution path budget per job
//	-job-timeout D       per-job scan deadline (0 disables); a job whose
//	                     scan ignores cancellation past the deadline +
//	                     grace is failed by the watchdog
//	-watchdog-grace D    wedge-detection window past -job-timeout
//	                     (default 5s)
//	-rate R              default tenant sustained submit rate per second
//	                     (0 = unlimited)
//	-burst N             default tenant burst allowance (default 4)
//	-max-queue N         default tenant queue bound (default 256)
//	-journal-max-records N   auto-compact the job journal past N records
//	-journal-max-bytes N     auto-compact the job journal past N bytes
//
// Endpoints:
//
//	POST   /jobs?tenant=T&name=N  submit JSON {"name","sources"} or a
//	                              (gzipped) tarball body; 202 with the
//	                              job, 429 + Retry-After when shed
//	GET    /jobs/{id}             status
//	GET    /jobs/{id}/result      canonical report (finished jobs)
//	GET    /jobs/{id}/events      SSE lifecycle + span progress stream
//	DELETE /jobs/{id}             cancel
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
//
// SIGTERM drains gracefully: in-flight jobs finish and journal, queued
// jobs stay submitted in the journal, and the next start with the same
// -dir re-enqueues them. SIGINT (or a second SIGTERM) hard-stops.
//
// Exit status: 0 clean shutdown (drain completed), 2 startup or serve
// error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/interp"
	"repro/internal/scand"
	"repro/internal/uchecker"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dir           = flag.String("dir", "", "daemon state directory (required)")
		addr          = flag.String("addr", ":8799", "listen address")
		scanWorkers   = flag.Int("scan-workers", 2, "concurrently running jobs")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "per-scan worker pool")
		interproc     = flag.String("interproc", "", `interprocedural strategy: "inline" or "summary"`)
		maxPaths      = flag.Int("max-paths", 0, "symbolic execution path budget per job (0 = default)")
		jobTimeout    = flag.Duration("job-timeout", 0, "per-job scan deadline (0 disables)")
		watchdogGrace = flag.Duration("watchdog-grace", 0, "wedge window past -job-timeout (default 5s)")
		rate          = flag.Float64("rate", 0, "default tenant submit rate per second (0 = unlimited)")
		burst         = flag.Int("burst", 4, "default tenant burst allowance")
		maxQueue      = flag.Int("max-queue", 0, "default tenant queue bound (0 = 256)")
		maxRecords    = flag.Int("journal-max-records", 0, "auto-compact the job journal past N records (0 disables)")
		maxBytes      = flag.Int64("journal-max-bytes", 0, "auto-compact the job journal past N bytes (0 disables)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ucheckerd: -dir is required")
		flag.Usage()
		return 2
	}
	interprocKind, err := interp.ParseInterprocKind(*interproc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucheckerd: %v\n", err)
		return 2
	}

	cfg := scand.Config{
		Dir: *dir,
		Scan: uchecker.Options{
			Workers:   *workers,
			Interproc: interprocKind,
			Budgets:   uchecker.Budgets{MaxPaths: *maxPaths},
		},
		ScanWorkers:   *scanWorkers,
		JobTimeout:    *jobTimeout,
		WatchdogGrace: *watchdogGrace,
		Default: scand.TenantPolicy{
			RatePerSec: *rate,
			Burst:      *burst,
			MaxQueue:   *maxQueue,
		},
		MaxJournalRecords: *maxRecords,
		MaxJournalBytes:   *maxBytes,
	}
	d, err := scand.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucheckerd: %v\n", err)
		return 2
	}

	srv := &http.Server{Addr: *addr, Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ucheckerd: serving on %s (state: %s)\n", *addr, *dir)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)

	select {
	case err := <-serveErr:
		d.Close()
		fmt.Fprintf(os.Stderr, "ucheckerd: serve: %v\n", err)
		return 2
	case sig := <-sigCh:
		if sig == syscall.SIGTERM {
			// Graceful drain: stop accepting, let in-flight jobs finish
			// and journal, leave queued jobs durable for the next start.
			// A second signal during the drain hard-stops.
			fmt.Fprintln(os.Stderr, "ucheckerd: SIGTERM: draining (in-flight jobs finish; queued jobs resume on restart)")
			drained := make(chan error, 1)
			go func() { drained <- d.Drain() }()
			select {
			case err := <-drained:
				shutdownHTTP(srv)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ucheckerd: drain: %v\n", err)
					return 2
				}
				fmt.Fprintln(os.Stderr, "ucheckerd: drained")
				return 0
			case <-sigCh:
				fmt.Fprintln(os.Stderr, "ucheckerd: second signal: hard stop")
				d.Close()
				shutdownHTTP(srv)
				return 0
			}
		}
		fmt.Fprintln(os.Stderr, "ucheckerd: interrupt: hard stop (in-flight scans abandoned; they re-run on restart)")
		d.Close()
		shutdownHTTP(srv)
		return 0
	}
}

func shutdownHTTP(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		srv.Close()
	}
}
