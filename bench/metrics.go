package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one reported metric and its unit. The tables below are
// this program's side of BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a user of the CLI or the
// daemon waits for or pays. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"strategies_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"table2_avg_err_pct", "%"},
	{"table2_max_err_pct", "%"},
}

// perLayer are the metrics of a traced run. A workload that bypasses a layer
// reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"execution.enumerate_s", "s"},
	{"execution.check_triple_s", "s"},
	{"execution.triples", "count"},
	{"execution.subtree_pruned_frac", "ratio"},
	{"perf.evals", "count"},
	{"perf.eval_s", "s"},
	{"perf.ns_per_eval", "ns"},
	{"perf.prescreened_frac", "ratio"},
	{"perf.cache_hit_frac", "ratio"},
	{"perf.feasible_frac", "ratio"},
	{"search.walk_s", "s"},
	{"search.self_s", "s"},
	{"search.parallel_eff", "ratio"},
	{"search.sweep_cache_hit_frac", "ratio"},
	{"serving.search_s", "s"},
	{"serving.engines", "count"},
	{"serving.prescreened_frac", "ratio"},
	{"serving.feasible_frac", "ratio"},
	{"serving.frontier_points", "count"},
	{"inference.estimate_ns", "ns"},
	{"service.submit_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_hit_ms", "ms"},
	{"service.run_miss_ms", "ms"},
	{"service.rejected", "count"},
	{"resultstore.open_s", "s"},
	{"resultstore.lookup_us", "us"},
	{"resultstore.store_us", "us"},
	{"resultstore.hit_frac", "ratio"},
	{"resultstore.appends", "count"},
	{"resultstore.flushes", "count"},
	{"resultstore.file_mb", "MiB"},
	{"trace.overhead_frac", "ratio"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as the last line of its standard
// output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a -record file: a result tagged with what produced
// it, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
	// Raw holds the host-time metrics as measured, before calibration.
	Raw map[string]float64 `json:"raw,omitempty"`
}

// buildResult assembles the result line from the measured values, in the
// metric table of the run's kind. A missing or non-finite value is a bug in
// this program; it is reported as a failure rather than printed as a number.
func (e *env) buildResult(defs []metricDef) result {
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := e.metrics[d.name]
		if !e.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s was not measured (value %v)", d.name, v) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = e.attempted, e.failed
	res.Correct = e.failed == 0
	return res
}

// printSummary writes the metrics as a human-readable table, with each
// host-time metric's value before calibration.
func printSummary(w io.Writer, workload string, defs []metricDef, res result, raw map[string]float64) {
	fmt.Fprintf(w, "bench: %s — %d attempted, %d failed\n", workload, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %-6s", d.name, res.Metrics[d.name].Value, d.unit)
		if v, ok := raw[d.name]; ok {
			fmt.Fprintf(w, " (measured %.6g)", v)
		}
		fmt.Fprintln(w)
	}
}

// appendRecord appends one tagged result line to path.
func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
