// Command bench is calculon's end-to-end benchmark. It builds the calculon
// CLI and the calculond daemon from source, runs them on seeded inputs the
// way users do, checks their outputs, and prints one JSON result line. A
// traced run (-trace 1) instead calls each layer's public API in-process and
// reports per-layer numbers. See README.md for the workloads and metrics.
//
// Usage:
//
//	bash bench/run.sh -workload train-search -seed 1 -seconds 20 [-trace 1]
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one named set of inputs: an untraced end-to-end run and a
// traced per-layer run over the same seeded inputs.
type workload struct {
	e2e, trace func(*env)
}

var workloads = map[string]workload{
	"train-search": {trainSearch, traceTrain},
	"size-sweep":   {sizeSweep, traceSweep},
	"serve-sweep":  {serveSweep, traceServe},
	"daemon-mixed": {daemonMixed, traceDaemon},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is one run's context: where the binaries and scratch files live, the
// seeded input parameters, the metrics measured so far, and the tally of
// attempted operations and failed ones.
type env struct {
	bin, work, out string
	name           string
	seed           int64
	seconds        int
	quick          bool
	workers        int
	log            io.Writer
	tr             *tracer // nil on untraced runs

	metrics           map[string]float64
	raw               map[string]float64 // host-time metrics before calibration
	calib             []float64          // host speed readings, seconds
	attempted, failed int
}

// check counts one attempted operation or correctness check and reports it
// as failed when ok is false.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.attempted++
	if !ok {
		e.failed++
		fmt.Fprintf(e.log, "bench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// ok is check for an operation's error.
func (e *env) ok(err error, what string) bool {
	return e.check(err == nil, "%s: %v", what, err)
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: "+format+"\n", args...)
}

// scaled is a repetition count for a measurement whose single repetition
// takes about nominal seconds on a 2-CPU host: enough repetitions to fill
// the run's -seconds, and at least min. Counts depend only on the flags, so
// the same flags always measure the same work.
func (e *env) scaled(nominal float64, min int) int {
	if e.quick {
		return min
	}
	return max(min, int(float64(e.seconds)/nominal+0.5))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "train-search", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "input seed: the same seed always generates the same inputs")
	seconds := fs.Int("seconds", 20, "approximate length of the measurement")
	trace := fs.Int("trace", 0, "1 runs the traced in-process per-layer run instead of the end-to-end one")
	quick := fs.Bool("quick", false, "tiny inputs, for smoke tests")
	out := fs.String("out", "", "directory for Chrome trace files (default .bench_build/out at the repository root)")
	rec := fs.String("record", "", "append the result, tagged with workload, seed and trace, to this JSONL file")
	compare := fs.Bool("compare", false, "compare two -record files named as arguments against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		return runCompare(root, fs.Args(), stdout, stderr)
	}
	wl, found := workloads[*name]
	switch {
	case !found:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %d\n", *seconds)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	build := filepath.Join(root, ".bench_build")
	e := &env{
		bin:     filepath.Join(build, "bin"),
		work:    filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())),
		out:     *out,
		name:    *name,
		seed:    *seed,
		seconds: *seconds,
		quick:   *quick,
		workers: min(runtime.NumCPU(), 4),
		log:     stderr,
		metrics: map[string]float64{},
		raw:     map[string]float64{},
	}
	if e.out == "" {
		e.out = filepath.Join(build, "out")
	}
	if err := buildBinaries(root, e.bin); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	defs := endToEnd
	start := time.Now()
	if *trace == 1 {
		defs = perLayer
		e.tr = newTracer()
		for _, d := range perLayer {
			e.set(d.name, 0)
		}
		wl.trace(e)
		path := filepath.Join(e.out, fmt.Sprintf("%s-seed%d.trace.json", e.name, e.seed))
		if e.ok(e.tr.writeChrome(path), "writing trace") {
			e.logf("wrote %d spans to %s", e.tr.len(), path)
		}
	} else {
		wl.e2e(e)
		e.normalize()
		e.table2()
	}
	res := e.buildResult(defs)
	e.logf("%s finished in %.1f s", e.name, time.Since(start).Seconds())
	printSummary(stderr, e.name, defs, res, e.raw)
	if *rec != "" {
		if err := appendRecord(*rec, record{Workload: e.name, Seed: e.seed, Trace: *trace, Result: res, Raw: e.raw}); err != nil {
			fmt.Fprintln(stderr, "bench: record:", err)
			res.Failed++
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the calculon module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module calculon\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the calculon repository (no go.mod declaring module calculon)")
		}
		dir = parent
	}
}

// buildBinaries builds the calculon CLI and the calculond daemon from the
// repository's source into dir. The build is not part of any measurement.
func buildBinaries(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/calculon", "./cmd/calculond")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building calculon and calculond: %v\n%s", err, out.String())
	}
	return nil
}
