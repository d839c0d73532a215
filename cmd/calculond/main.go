// Command calculond serves the execution search as a long-running HTTP/JSON
// daemon: POST a job spec, poll live progress, fetch the result. See
// docs/SERVICE.md for the API.
//
// Usage:
//
//	calculond -addr 127.0.0.1:8080 -workers 8 -max-running 2 [flags]
//
// Lifecycle: SIGTERM drains gracefully — the listener stops accepting,
// queued jobs are cancelled, running jobs get -drain-timeout to finish
// before their contexts are cancelled — and the process exits 0. SIGINT
// drains the same way but exits 130, matching the calculon CLI's exit-code
// convention (0 success, 1 runtime error, 2 usage).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"calculon/internal/resultstore"
	"calculon/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main minus os.Exit, so tests can table-check the exit codes.
func run(args []string) int {
	fs := flag.NewFlagSet("calculond", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "global search-worker budget shared across all running jobs (0 = GOMAXPROCS)")
	maxRunning := fs.Int("max-running", 2, "maximum concurrently running jobs (clamped to the worker budget)")
	queueDepth := fs.Int("queue-depth", 64, "maximum queued jobs before submits get 503")
	rate := fs.Float64("rate", 20, "per-client request rate limit in req/s over /v1 (0 disables)")
	burst := fs.Int("burst", 40, "per-client burst allowance for the rate limit")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain lets running jobs finish before cancelling them")
	storePath := fs.String("store", "", "persistent result store (JSONL): jobs consult it before searching and append fresh verdicts (empty disables)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "calculond: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	var store *resultstore.Store
	if *storePath != "" {
		var err error
		if store, err = resultstore.Open(*storePath); err != nil {
			fmt.Fprintln(os.Stderr, "calculond:", err)
			return 1
		}
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "calculond: result store %s: %d rows", *storePath, st.Rows)
		if st.Stale > 0 {
			fmt.Fprintf(os.Stderr, ", %d stale (space version)", st.Stale)
		}
		if st.RecoveredBytes > 0 {
			fmt.Fprintf(os.Stderr, ", recovered from %d truncated bytes", st.RecoveredBytes)
		}
		fmt.Fprintln(os.Stderr)
	}
	// closeStore flushes the pending batch on every exit path; after a drain
	// the jobs have unwound, so nothing appends concurrently and the file
	// ends on a whole row.
	closeStore := func() bool {
		if store == nil {
			return true
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "calculond:", err)
			return false
		}
		return true
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calculond:", err)
		closeStore()
		return 1
	}
	svc := service.New(service.Config{
		Workers:    *workers,
		MaxRunning: *maxRunning,
		QueueDepth: *queueDepth,
		Rate:       *rate,
		Burst:      *burst,
		Store:      store,
	})
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// The handler goes in before the address is announced: a supervisor may
	// signal as soon as it reads the line, and that signal must drain the
	// daemon, not kill it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	// The supervisor (and the e2e smoke client) learns the bound port from
	// this line; keep its shape stable.
	fmt.Printf("calculond: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died under us (it is never closed on this path).
		fmt.Fprintln(os.Stderr, "calculond:", err)
		svc.Drain(context.Background())
		closeStore()
		return 1
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "calculond: %v — draining (timeout %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Stop accepting and wait out in-flight requests, then settle the
		// jobs. Shutdown's error is the deadline firing with pollers still
		// connected; the drain below still runs to completion.
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "calculond: shutdown:", err)
		}
		svc.Drain(ctx)
		if !closeStore() {
			return 1
		}
		fmt.Fprintln(os.Stderr, "calculond: drained")
		if sig == os.Interrupt {
			return 130
		}
		return 0
	}
}
