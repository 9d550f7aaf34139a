// Command reprod serves the repository's reproduction machinery over
// HTTP/JSON: queue explore and worstcase jobs, stream their progress,
// cancel and resume checkpointed runs, and fetch the regenerated paper
// tables E1–E12 — internal/reprod as a long-lived service.
//
// Usage:
//
//	reprod -addr :8177 -data /var/lib/reprod
//
// Endpoints (all JSON unless noted):
//
//	GET  /healthz                     liveness
//	GET  /metrics                     Prometheus text exposition: server
//	                                  families + live per-job engine counters
//	GET  /api/v1/experiments          all regenerated tables (cached)
//	GET  /api/v1/experiments/{id}     one table, e.g. E7
//	POST /api/v1/jobs                 submit a jobspec.Spec; returns the job
//	GET  /api/v1/jobs                 list jobs in submission order
//	GET  /api/v1/jobs/{id}            job status + result document
//	GET  /api/v1/jobs/{id}/stream     NDJSON status stream until terminal
//	POST /api/v1/jobs/{id}/cancel     cancel a queued or checkpointed job
//	POST /api/v1/jobs/{id}/resume     re-queue a canceled/failed job from
//	                                  its snapshot
//
// With -data, exhaustive jobs snapshot to <data>/<jobID>.rpck between
// units, so cancel/resume loses no committed work. SIGINT shuts the
// server down gracefully.
//
// -debug-addr binds a second, operator-only listener exposing the Go
// debug surface: net/http/pprof under /debug/pprof/ and expvar under
// /debug/vars. It is opt-in and meant for loopback addresses — the
// profile endpoints can stall the process and must never share the
// public API port.
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on the default mux (-debug-addr only)
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (-debug-addr only)
	"os"
	"os/signal"
	"time"

	"repro/internal/reprod"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	addr := fs.String("addr", ":8177", "listen address")
	dataDir := fs.String("data", "", "checkpoint directory; empty disables durable jobs")
	debugAddr := fs.String("debug-addr", "",
		"optional second listener for pprof (/debug/pprof/) and expvar (/debug/vars); use a loopback address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s, err := reprod.NewServer(*dataDir)
	if err != nil {
		return err
	}
	defer s.Close()

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		// The blank imports above registered the pprof and expvar
		// handlers on http.DefaultServeMux; serve exactly that mux here
		// and nowhere else, keeping the debug surface off the API port.
		fmt.Fprintf(os.Stderr, "reprod: debug listening on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, http.DefaultServeMux); err != nil {
				fmt.Fprintln(os.Stderr, "reprod: debug server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// No WriteTimeout: /api/v1/jobs/{id}/stream holds its response open
	// for as long as the job runs.
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	// The readiness line goes out only after the port is bound, so smoke
	// scripts can wait on it.
	fmt.Fprintf(os.Stderr, "reprod: listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
