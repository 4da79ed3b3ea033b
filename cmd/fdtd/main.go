// Command fdtd is the simulation-as-a-service daemon: it serves the
// feedback-driven-threading simulator over HTTP with a bounded,
// client-fair job queue, SSE progress streaming, and a disk-persistent
// content-addressed run store shared with the CLI tools.
//
//	fdtd -addr :8080 -store /var/lib/fdt/runs
//
//	curl -s localhost:8080/v1/jobs -d '{"workload":"pagemine","threads":[2,4,8]}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -N  localhost:8080/v1/jobs/job-1/stream
//	curl -s localhost:8080/v1/stats
//
// -pprof serves net/http/pprof on a listener of its own, so profiles
// never share the API's address:
//
//	fdtd -pprof 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//
// SIGINT/SIGTERM starts a graceful drain: admission stops (503), the
// queue empties, in-flight jobs finish, then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fdt/internal/core"
	"fdt/internal/runner"
	"fdt/internal/service"
	"fdt/internal/store"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable daemon body: it returns once the listener is
// closed after a drain triggered by ctx cancellation (or exits
// non-zero on setup errors). The bound address is printed to stdout
// so callers using -addr :0 can discover the port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	storeDir := fs.String("store", "", "disk run-store directory (empty = in-memory cache only)")
	workers := fs.Int("workers", 2, "concurrent jobs")
	queueCap := fs.Int("queue", 64, "admission queue capacity (0 = unbounded)")
	parallel := fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	cacheLimit := fs.Int("cache-limit", 0, "max in-memory cached runs, evicted LRU-ish (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "max time to finish queued jobs on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "fdtd: unexpected arguments %v\n", fs.Args())
		return 2
	}

	if *parallel > 0 {
		runner.SetWorkers(*parallel)
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, core.RunStoreSchema); err != nil {
			fmt.Fprintf(stderr, "fdtd: open store: %v\n", err)
			return 1
		}
		entries, bytes := st.Len()
		fmt.Fprintf(stdout, "fdtd: store %s (%d entries, %d bytes)\n", st.Dir(), entries, bytes)
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "fdtd: pprof listen: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "fdtd: pprof on %s\n", pln.Addr())
		psrv := &http.Server{Handler: pprofHandler()}
		go psrv.Serve(pln)
		defer psrv.Close()
	}

	svc := service.New(service.Config{Workers: *workers, QueueCap: *queueCap, Runs: core.NewRuns(*cacheLimit, st)})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "fdtd: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "fdtd: listening on %s\n", ln.Addr())
	srv := &http.Server{Handler: svc.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "fdtd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain first so queued jobs finish while the listener still
	// answers polls/streams, then shut the HTTP server down.
	fmt.Fprintln(stdout, "fdtd: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "fdtd: drain: %v\n", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "fdtd: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "fdtd: stopped")
	return 0
}

// pprofHandler serves the net/http/pprof endpoints under
// /debug/pprof/, on a mux of its own rather than the default one.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
