package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/serving"
)

// runtimeFlags are the lifecycle and observability flags of the
// long-running subcommands: a wall-clock timeout and profiling hooks on all
// of them, and on the search commands a live progress ticker on stderr, the
// worker budget and the result store.
type runtimeFlags struct {
	timeout    time.Duration
	progress   time.Duration
	pprofAddr  string
	cpuprofile string
	workers    int
	store      string
}

// addHooks registers the timeout and profiling flags on a subcommand's
// FlagSet.
func addHooks(fs *flag.FlagSet) *runtimeFlags {
	r := &runtimeFlags{}
	fs.DurationVar(&r.timeout, "timeout", 0, "abort after this long, reporting partial progress (0 = no limit)")
	fs.StringVar(&r.pprofAddr, "pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	fs.StringVar(&r.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	return r
}

// addRuntime registers the hooks and the search flags on a search
// command's FlagSet.
func addRuntime(fs *flag.FlagSet) *runtimeFlags {
	r := addHooks(fs)
	fs.DurationVar(&r.progress, "progress", 0, "print a live progress line to stderr at this interval (0 = off)")
	fs.IntVar(&r.workers, "workers", 0, "total worker budget for searches and sweeps (0 = GOMAXPROCS)")
	fs.StringVar(&r.store, "store", "", "persistent result store (JSONL): searches consult it before evaluating and append fresh verdicts (empty disables)")
	return r
}

// checkScenario rejects the flags given next to -scenario that the
// scenario file replaces, which would otherwise be silently ignored. Only
// the flags named in keep and the runtime flags may accompany a scenario.
func checkScenario(fs *flag.FlagSet, keep ...string) error {
	rt := flag.NewFlagSet("", flag.ContinueOnError)
	addRuntime(rt)
	var replaced []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "scenario" && rt.Lookup(f.Name) == nil && !slices.Contains(keep, f.Name) {
			replaced = append(replaced, "-"+f.Name)
		}
	})
	if len(replaced) > 0 {
		return fmt.Errorf("%s: -scenario replaces %s; put the setting in the scenario file instead", fs.Name(), strings.Join(replaced, ", "))
	}
	return nil
}

// apply derives the command's context from the timeout and starts the
// profiling hooks. The returned cleanup must run before the command exits;
// it stops the CPU profile and releases the timeout.
func (r *runtimeFlags) apply(ctx context.Context) (context.Context, func(), error) {
	cancel := func() {}
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
	}
	if r.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(r.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "calculon: pprof server: %v\n", err)
			}
		}()
	}
	stopProfile := func() {}
	if r.cpuprofile != "" {
		f, err := os.Create(r.cpuprofile)
		if err != nil {
			cancel()
			return ctx, nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				err = fmt.Errorf("%w (closing profile file: %v)", err, cerr)
			}
			cancel()
			return ctx, nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "calculon: cpuprofile: %v\n", err)
			}
		}
	}
	return ctx, func() {
		stopProfile()
		cancel()
	}, nil
}

// session is one run of a search command: its context, the result store
// -store names, and the Progress its searches report into. The same JSONL
// store serves both kinds of verdict.
type session struct {
	rt      *runtimeFlags
	ctx     context.Context
	cleanup func()
	store   *resultstore.Store
	prog    search.Progress
	watch   search.Watch
}

// start applies the runtime flags: timeout and profiling hooks, the store,
// and a Watch over the session's Progress with a pre-counted total for
// ETAs and, under -progress, a stderr ticker. The caller must defer close.
func (r *runtimeFlags) start(ctx context.Context) (*session, error) {
	ctx, cleanup, err := r.apply(ctx)
	if err != nil {
		return nil, err
	}
	if searchContext != nil {
		ctx = searchContext(ctx)
	}
	s := &session{rt: r, ctx: ctx, cleanup: cleanup}
	s.watch = search.Watch{Progress: &s.prog, ProgressInterval: r.progress}
	if r.progress > 0 {
		s.watch.OnProgress = func(p search.ProgressSnapshot) { fmt.Fprintf(os.Stderr, "calculon: %s\n", p) }
	}
	if r.store != "" {
		if s.store, err = resultstore.Open(r.store); err != nil {
			cleanup()
			return nil, err
		}
		if st := s.store.Stats(); st.Stale > 0 || st.RecoveredBytes > 0 {
			fmt.Fprintf(os.Stderr, "calculon: store %s: %d rows (%d stale, recovered from %d truncated bytes)\n",
				r.store, st.Rows, st.Stale, st.RecoveredBytes)
		}
	}
	return s, nil
}

// close flushes the store and stops the hooks. A flush failure means fresh
// verdicts never became durable; the command's output is still valid, but
// the exit code must say so, so it becomes *err unless that holds one.
func (s *session) close(err *error) {
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && *err == nil {
			*err = cerr
		}
	}
	s.cleanup()
}

// train wires the session into an execution search's options.
func (s *session) train(o *search.Options) {
	o.Watch, o.Workers = s.watch, s.rt.workers
	if s.store != nil {
		o.Cache = s.store
	}
}

// serve wires the session into a serving search's options.
func (s *session) serve(o *serving.Options) {
	o.Watch, o.Workers = s.watch, s.rt.workers
	if s.store != nil {
		o.Cache = s.store.ServingCache()
	}
}

// stopped passes a search's error through. For a cancelled or timed-out
// search it first prints the partial progress on stderr as "calculon: <what>
// stopped early — <snapshot>", what being "search", "sweep" or "shard 2/3".
func (s *session) stopped(what string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "calculon: %s stopped early — %s\n", what, s.prog.Snapshot())
	}
	return err
}

// servedNote tells the user that a single search's verdict came from the
// store.
func (s *session) servedNote() {
	if s.prog.Snapshot().StoreHits > 0 {
		fmt.Printf("verdict served from result store %s — nothing re-evaluated\n", s.rt.store)
	}
}
