// Command tesimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts simulation and sweep requests, executes
// them on the resilient runner pool, and persists completed runs in the
// pool's crash-safe checkpoint journal (the -store file), keyed by run, so
// repeat queries are O(1) and a killed daemon resumes without
// re-simulating.
//
// Usage:
//
//	tesimd [-addr host:port] [-store file.jsonl] [-queue-cap N]
//	       [-jobs N] [-run-timeout d]
//	       [-max-runs-per-job N] [-default-deadline d] [-max-deadline d]
//	       [-drain-timeout d]
//
// API:
//
//	POST /v1/runs              submit a sweep ({"configs":[...],"benchmarks":[...],...})
//	GET  /v1/runs/{id}         job status
//	GET  /v1/runs/{id}/result  canonical result document (byte-stable)
//	GET  /v1/runs/{id}/events  NDJSON progress stream
//	GET  /v1/configs           accepted design-point names
//	GET  /healthz, /readyz, /statusz
//
// Shutdown: SIGTERM/SIGINT starts a graceful drain — readiness flips to
// 503, new submissions are refused, in-flight jobs finish (or are
// checkpointed when -drain-timeout expires; the store is fsynced per
// record so nothing completed is ever lost) — and the process exits 0. A
// second signal force-quits with exit 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/iofault"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8844", "listen address")
	store := flag.String("store", "tesimd.jsonl", "content-addressed result store journal (\"\" = memory only)")
	queueCap := flag.Int("queue-cap", service.DefaultQueueCap, "max admitted unfinished jobs before shedding with 429")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 5*time.Minute, "per-run wall-clock deadline (0 = none)")
	maxRuns := flag.Int("max-runs-per-job", service.DefaultMaxRunsPerJob, "max configs×benchmarks per request")
	defDeadline := flag.Duration("default-deadline", service.DefaultDeadline, "end-to-end deadline for jobs that request none")
	maxDeadline := flag.Duration("max-deadline", service.DefaultMaxDeadline, "clamp on requested job deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
	listCPs := flag.Bool("list-crashpoints", false, "print registered crashpoint names (for scripts/chaos.sh) and exit")
	flag.Parse()

	if *listCPs {
		for _, p := range iofault.Points() {
			fmt.Println(p)
		}
		return
	}

	logger := log.New(os.Stderr, "tesimd: ", log.LstdFlags|log.Lmsgprefix)
	srv, err := service.New(service.Options{
		StorePath:       *store,
		QueueCap:        *queueCap,
		Jobs:            *jobs,
		RunTimeout:      *runTimeout,
		MaxRunsPerJob:   *maxRuns,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		Logf:            func(format string, args ...any) { logger.Printf(format, args...) },
	})
	if err != nil {
		logger.Printf("startup failed: %v", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen %s: %v", *addr, err)
		os.Exit(1)
	}
	logger.Printf("serving on http://%s (store %q, queue %d)", ln.Addr(), *store, *queueCap)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		logger.Printf("received %v; draining (budget %v)", got, *drainTimeout)
	case err := <-serveErr:
		logger.Printf("serve failed: %v", err)
		srv.Close()
		os.Exit(1)
	}

	// A second signal force-quits: the store is fsynced per record, so
	// even this loses only the runs still in flight.
	go func() {
		<-sig
		logger.Printf("second signal; force quit")
		os.Exit(130)
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain flips readiness and refuses new work immediately; Shutdown
	// stops the listener and waits for in-flight HTTP requests (event
	// streams end as their jobs finish or are checkpointed).
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(drainCtx) }()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if err := <-drainDone; err != nil {
		// A drain error (e.g. a journal close failure) is worth logging
		// but the drain contract — finished work is durable — held, so
		// the exit is still clean for the supervisor.
		logger.Printf("drain: %v", err)
	}
	logger.Printf("drained; bye")
	os.Exit(0)
}
