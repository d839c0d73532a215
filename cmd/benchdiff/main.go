// Command benchdiff guards search throughput against regressions: it parses
// `go test -bench` output from stdin, extracts custom metrics (strategies/s
// and friends), and compares them against the committed baseline in
// BENCH_BASELINE.json. A metric that drops more than the tolerance below its
// baseline fails the run — this is the benchmark-smoke CI gate that keeps
// the paper's "millions of combinations in only a few minutes" property
// honest as the code evolves.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkExecutionSearch -benchtime 100x -count 3 ./internal/search |
//	    go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -tolerance 0.30
//
// `make bench` pipes every baselined benchmark through one comparison, in
// the procedure BENCH_BASELINE.json's note records.
//
// When a benchmark appears multiple times on stdin (-count=N), the best
// observation per metric is used — max for higher-is-better metrics, min
// for allocs/op — because machine noise is one-sided: interference makes a
// run look slower than the code is, never faster.
//
// Pass -update to rewrite the baseline from the fresh run instead of
// comparing (do this on the reference machine after a deliberate perf
// change). Custom metrics such as strategies/s are higher-is-better;
// allocs/op — deterministic across machines, unlike ns/op — is kept and
// compared lower-is-better, so allocation regressions fail the gate too.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the on-disk schema of BENCH_BASELINE.json.
type Baseline struct {
	// Note documents where the numbers came from.
	Note string `json:"note,omitempty"`
	// Benchmarks maps a benchmark name (without the -N GOMAXPROCS suffix)
	// to its metrics, e.g. "strategies/s": 250000. Metrics are
	// higher-is-better except those listed in lowerIsBetter.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// lowerIsBetter marks the metrics where a larger fresh value is the
// regression. allocs/op is the only one tracked: it is exactly reproducible
// across machines, unlike ns/op and B/op which stay excluded as noise.
func lowerIsBetter(metric string) bool { return metric == "allocs/op" }

// Measurement is one metric observed in a `go test -bench` run.
type Measurement struct {
	Benchmark string
	Metric    string
	Value     float64
}

// parseBenchOutput extracts every metric of every benchmark line in r.
// Benchmark lines look like
//
//	BenchmarkExecutionSearch-8   3   401440493 ns/op   123456 strategies/s   2048 B/op   12 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs. The -N worker
// suffix is stripped so results compare across machines.
func parseBenchOutput(r io.Reader) ([]Measurement, error) {
	var out []Measurement
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count — some other Benchmark-prefixed line
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			out = append(out, Measurement{Benchmark: name, Metric: fields[i+1], Value: v})
		}
	}
	return out, sc.Err()
}

// bestOf folds measurements into per-benchmark metric maps, keeping the
// best observation per metric: the max for higher-is-better metrics
// (strategies/s), the min for lower-is-better ones (allocs/op). A benchmark
// run with -count=N therefore gets a best-of-N comparison — the standard
// shield against one-sided scheduler/frequency noise, which only ever makes
// a run look slower than the code is, never faster.
func bestOf(fresh []Measurement) map[string]map[string]float64 {
	got := map[string]map[string]float64{}
	for _, m := range fresh {
		if got[m.Benchmark] == nil {
			got[m.Benchmark] = map[string]float64{}
		}
		prev, seen := got[m.Benchmark][m.Metric]
		better := !seen ||
			(lowerIsBetter(m.Metric) && m.Value < prev) ||
			(!lowerIsBetter(m.Metric) && m.Value > prev)
		if better {
			got[m.Benchmark][m.Metric] = m.Value
		}
	}
	return got
}

// compare checks every baseline metric against the fresh run. Every baseline
// entry produces a visible row — a comparison when the run measured it, an
// explicit "missing" marker when it did not — so a benchmark that silently
// disappears from the -bench filter can never fake a green gate. It returns
// the rows and an error when any metric regressed beyond the tolerance or a
// baseline entry is missing from the run.
func compare(base Baseline, fresh []Measurement, tolerance float64) ([]string, error) {
	got := bestOf(fresh)
	var rows []string
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] == nil {
			// The whole benchmark vanished: aggregate into one row instead of
			// one line per metric, and say what to check.
			row := fmt.Sprintf("%s: missing entirely from the fresh run (%d baseline metrics unchecked — renamed, deleted, or dropped from the -bench filter?)",
				name, len(base.Benchmarks[name]))
			rows = append(rows, row)
			failures = append(failures, row)
			continue
		}
		metrics := make([]string, 0, len(base.Benchmarks[name]))
		for m := range base.Benchmarks[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			want := base.Benchmarks[name][metric]
			have, ok := got[name][metric]
			if !ok {
				row := fmt.Sprintf("%s %s: baseline %.0f, missing from the fresh run", name, metric, want)
				rows = append(rows, row)
				failures = append(failures, row)
				continue
			}
			delta := fmt.Sprintf("%+.1f%%", 100*(have/want-1))
			if want == 0 {
				delta = fmt.Sprintf("%+.0f", have-want) // a 0 baseline has no percentage
			}
			row := fmt.Sprintf("%s %s: %.0f vs baseline %.0f (%s)", name, metric, have, want, delta)
			rows = append(rows, row)
			if lowerIsBetter(metric) {
				// Guard the zero-allocation baseline: a want of 0 still
				// tolerates a fraction of one alloc, not a fraction of zero.
				limit := want
				if limit < 1 {
					limit = 1
				}
				if have > limit*(1+tolerance) {
					failures = append(failures, row+fmt.Sprintf(" — above the %.0f%% tolerance", 100*tolerance))
				}
			} else if have < want*(1-tolerance) {
				failures = append(failures, row+fmt.Sprintf(" — below the %.0f%% tolerance", 100*tolerance))
			}
		}
	}
	if len(failures) > 0 {
		return rows, fmt.Errorf("benchmark regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return rows, nil
}

// update folds the fresh measurements into the baseline, keeping the custom
// metrics and allocs/op (ns/op and B/op are machine noise for this gate;
// strategies/s is the throughput contract and allocs/op the allocation one).
// For a benchmark already in the baseline, only the metrics the baseline
// tracks are refreshed: the metric set is curated — e.g. a warm-store
// lookup reports strategies/s for humans but pins allocs only, because a
// ~20µs op's throughput is timer noise at CI tolerances — and -update must
// not silently widen it. A benchmark new to the baseline gets every metric;
// prune the noisy ones once, by hand. Baseline entries the run did not
// exercise are kept — a partial -bench filter must not erase the rest of
// the gate — but their names are returned so the caller can warn about
// entries that may be stale.
func update(base *Baseline, fresh []Measurement) (stale []string) {
	if base.Benchmarks == nil {
		base.Benchmarks = map[string]map[string]float64{}
	}
	ran := map[string]bool{}
	for name, metrics := range bestOf(fresh) {
		ran[name] = true
		curated := base.Benchmarks[name]
		for metric, v := range metrics {
			switch metric {
			case "ns/op", "B/op":
				continue
			}
			if curated != nil {
				if _, tracked := curated[metric]; !tracked {
					continue
				}
			}
			if base.Benchmarks[name] == nil {
				base.Benchmarks[name] = map[string]float64{}
			}
			base.Benchmarks[name][metric] = v
		}
	}
	for name := range base.Benchmarks {
		if !ran[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return stale
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional drop below baseline before failing")
	doUpdate := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	flag.Parse()

	fresh, err := parseBenchOutput(os.Stdin)
	if err != nil {
		return fmt.Errorf("parsing bench output: %w", err)
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	if *doUpdate {
		var base Baseline
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			if err := json.Unmarshal(raw, &base); err != nil {
				return fmt.Errorf("parsing %s: %w", *baselinePath, err)
			}
		}
		for _, name := range update(&base, fresh) {
			fmt.Fprintf(os.Stderr, "benchdiff: warning: baseline entry %s was not in this run; kept as-is (delete it from the baseline if the benchmark is gone)\n", name)
		}
		raw, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("updated %s\n", *baselinePath)
		return nil
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}
	rows, err := compare(base, fresh, *tolerance)
	for _, r := range rows {
		fmt.Println(r)
	}
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
