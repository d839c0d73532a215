package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the id of the span that caused this one (0 for roots).
type span struct {
	name       string
	start, end time.Time
	id, parent int
	req        string
	// lane is the Chrome-trace thread the span is drawn on; spans of one
	// lane nest.
	lane int
}

// tracer keeps a run's spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// add records a finished span and returns its id. A nil tracer records
// nothing, which is how the untraced replica runs.
func (t *tracer) add(name string, start, end time.Time, parent int, req string, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, start: start, end: end, id: id, parent: parent, req: req, lane: lane})
	return id
}

// begin opens a span that ends at the matching finish, so spans it causes
// can name it as their parent.
func (t *tracer) begin(name string, parent int, req string, lane int) int {
	now := time.Now()
	return t.add(name, now, now, parent, req, lane)
}

// finish ends the span begin opened.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// total is the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing load.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var origin time.Time
	for _, s := range t.spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		data, err := json.Marshal(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(data)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Chrome-trace lanes, one per layer, so each lane's spans nest.
const (
	laneBench = iota + 1
	laneExecution
	lanePerf
	laneServing
	laneInference
	laneStore
)

// chunkSize matches the search's work-chunk size, so the replica records
// one evaluation span per chunk the search would hand a worker.
const chunkSize = 256

// replica is what a single-worker search.Execution counts and finds, as
// reproduced from the public execution and perf APIs.
type replica struct {
	evaluated, feasible, prescreened, cacheHits, subtreePruned int
	evals, triples                                             int
	found                                                      bool
	best                                                       perf.Result
}

// replicate re-walks search.Execution's steps with one worker: list the
// (tp,pp,dp) triples, drop each triple the pre-screen proves infeasible
// (counting its leaves in closed form), enumerate the rest into 256-leaf
// chunks, and evaluate every leaf along one delta chain. It records a span
// per triple check, per enumerated chunk and per evaluated chunk. enum must
// be normalized as the search normalizes it.
func replicate(tr *tracer, parent int, req string, m model.LLM, sys system.System, enum execution.EnumOptions, runner *perf.Runner) replica {
	var out replica
	screen := execution.NewPreScreen(m, execution.Limits{Procs: sys.Procs, Mem1: sys.Mem1.Capacity, Mem2: sys.Mem2.Capacity})
	t0 := time.Now()
	triples := enum.Triples(m)
	tr.add("execution.enumerate", t0, time.Now(), parent, req, laneExecution)

	var chain perf.RunInfo
	var res perf.Result
	chunk := make([]execution.Strategy, 0, chunkSize)
	evalChunk := func() {
		start := time.Now()
		for _, st := range chunk {
			out.evals++
			info, err := runner.RunDeltaInto(chain, st, &res)
			chain = info
			if info.PreScreened {
				out.prescreened++
			}
			if info.CacheHit {
				out.cacheHits++
			}
			if err != nil {
				continue
			}
			out.feasible++
			// Enumeration order breaks ties, so only a strictly faster
			// strategy replaces the best.
			if !out.found || res.SampleRate > out.best.SampleRate {
				out.best, out.found = res, true
			}
		}
		tr.add("perf.eval", start, time.Now(), parent, req, lanePerf)
		chunk = chunk[:0]
	}
	for _, tpd := range triples {
		out.triples++
		start := time.Now()
		err := screen.CheckTriple(enum, tpd)
		tr.add("execution.check_triple", start, time.Now(), parent, req, laneExecution)
		if err != nil {
			leaves := enum.TripleLeafCount(m, tpd)
			out.subtreePruned += leaves
			out.prescreened += leaves
			continue
		}
		start = time.Now()
		enum.EnumerateTriple(m, tpd, func(st execution.Strategy) bool {
			chunk = append(chunk, st)
			if len(chunk) == chunkSize {
				tr.add("execution.enumerate", start, time.Now(), parent, req, laneExecution)
				evalChunk()
				start = time.Now()
			}
			return true
		})
		tr.add("execution.enumerate", start, time.Now(), parent, req, laneExecution)
	}
	if len(chunk) > 0 {
		evalChunk()
	}
	out.evaluated = out.evals + out.subtreePruned
	return out
}

// matches reports how the replica differs from the search's result, or nil.
func (r replica) matches(evaluated, feasible, prescreened, subtreePruned, cacheHits int) error {
	got := [5]int{r.evaluated, r.feasible, r.prescreened, r.subtreePruned, r.cacheHits}
	want := [5]int{evaluated, feasible, prescreened, subtreePruned, cacheHits}
	if got != want {
		return fmt.Errorf("replica counted (evaluated, feasible, pre-screened, subtree-pruned, cache hits) %v, the search %v", got, want)
	}
	return nil
}

// add sums another replica's counters into r.
func (r *replica) add(o replica) {
	r.evaluated += o.evaluated
	r.feasible += o.feasible
	r.prescreened += o.prescreened
	r.cacheHits += o.cacheHits
	r.subtreePruned += o.subtreePruned
	r.evals += o.evals
	r.triples += o.triples
}

// searchCase is one search a replica pass walks.
type searchCase struct {
	sys  system.System
	enum execution.EnumOptions
}

// replicateAll replicates each search in turn — drawing every runner from
// one perf.RunnerGroup when shared is set, as search.SystemSize does across
// sizes — and returns each replica and the wall time of the pass.
func replicateAll(tr *tracer, req string, m model.LLM, cases []searchCase, shared bool) ([]replica, time.Duration, error) {
	var group *perf.RunnerGroup
	if shared {
		var err error
		if group, err = perf.NewRunnerGroup(m, cases[0].sys); err != nil {
			return nil, 0, err
		}
	}
	root := tr.begin("search.replica", 0, req, laneBench)
	start := time.Now()
	out := make([]replica, len(cases))
	for i, c := range cases {
		var runner *perf.Runner
		var err error
		if group != nil {
			runner, err = group.RunnerFor(c.sys)
		} else {
			runner, err = perf.NewRunner(m, c.sys)
		}
		if err != nil {
			return nil, 0, err
		}
		out[i] = replicate(tr, root, req, m, c.sys, c.enum, runner)
	}
	wall := time.Since(start)
	tr.finish(root)
	return out, wall, nil
}

// overheadPasses runs an untraced pass, the traced pass, and the untraced
// pass again, and returns the traced pass's time and the mean untraced
// time: the traced pass runs neither first nor last, so warm-up and drift
// weigh on both sides alike.
func overheadPasses(untraced, traced func() (time.Duration, error)) (time.Duration, time.Duration, error) {
	u1, err := untraced()
	if err != nil {
		return 0, 0, err
	}
	t, err := traced()
	if err != nil {
		return 0, 0, err
	}
	u2, err := untraced()
	if err != nil {
		return 0, 0, err
	}
	return t, (u1 + u2) / 2, nil
}

// trainingTrace accumulates a training workload's traced measurements.
type trainingTrace struct {
	replica            replica       // summed over every replicated search
	traced, untraced   time.Duration // replica passes with and without spans
	walk, parallel     time.Duration // the searches on one and on all workers
	progEval, progHits int64         // the all-worker searches' Progress counters
}

// replicas runs the replica pass with spans between two passes without,
// adding the traced and mean untraced wall times and the traced pass's
// counters to t.
func (e *env) replicas(t *trainingTrace, req string, m model.LLM, cases []searchCase, shared bool) ([]replica, bool) {
	var reps []replica
	traced, untraced, err := overheadPasses(
		func() (time.Duration, error) {
			_, wall, err := replicateAll(nil, req, m, cases, shared)
			return wall, err
		},
		func() (time.Duration, error) {
			var wall time.Duration
			var err error
			reps, wall, err = replicateAll(e.tr, req, m, cases, shared)
			return wall, err
		})
	if !e.ok(err, "replica") {
		return nil, false
	}
	t.untraced += untraced
	t.traced += traced
	for _, r := range reps {
		t.replica.add(r)
	}
	return reps, true
}

// report sets the training layers' metrics. The search's self time is the
// one-worker search's wall minus the untraced replica's, which does the
// same execution and perf work: what remains is the fold into best, top-K
// and Pareto front, and the hand-off of chunks. Where that work is smaller
// than run-to-run noise, as in the sweep, it can read slightly negative.
func (t *trainingTrace) report(e *env) {
	r := t.replica
	enumerate := e.tr.total("execution.enumerate")
	check := e.tr.total("execution.check_triple")
	eval := e.tr.total("perf.eval")
	e.set("execution.enumerate_s", enumerate.Seconds())
	e.set("execution.check_triple_s", check.Seconds())
	e.set("execution.triples", float64(r.triples))
	e.set("execution.subtree_pruned_frac", ratio(r.subtreePruned, r.evaluated))
	e.set("perf.evals", float64(r.evals))
	e.set("perf.eval_s", eval.Seconds())
	if r.evals > 0 {
		e.set("perf.ns_per_eval", float64(eval.Nanoseconds())/float64(r.evals))
	}
	e.set("perf.prescreened_frac", ratio(r.prescreened-r.subtreePruned, r.evals))
	e.set("perf.cache_hit_frac", ratio(r.cacheHits, r.evals))
	e.set("perf.feasible_frac", ratio(r.feasible, r.evals))
	e.set("search.walk_s", t.walk.Seconds())
	e.set("search.self_s", (t.walk - t.untraced).Seconds())
	if t.parallel > 0 {
		e.set("search.parallel_eff", t.walk.Seconds()/(float64(e.workers)*t.parallel.Seconds()))
	}
	e.set("search.sweep_cache_hit_frac", ratio(int(t.progHits), int(t.progEval)))
	if t.untraced > 0 {
		e.set("trace.overhead_frac", t.traced.Seconds()/t.untraced.Seconds()-1)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceTrain traces the train-search command: the untraced single-worker
// search, the replica that must reproduce it, and the search on all
// workers.
func traceTrain(e *env) {
	c := genTrain(e.seed, e.quick)
	m, sys, err := c.resolve()
	if !e.ok(err, "resolving the search") {
		return
	}
	ctx := context.Background()
	opts := search.Options{Enum: execution.EnumOptions{Features: execution.FeatureAll}, TopK: c.TopK, Pareto: true}
	var t trainingTrace

	o1 := opts
	o1.Workers = 1
	start := time.Now()
	ref, err := search.Execution(ctx, m, sys, o1)
	t.walk = time.Since(start)
	if !e.ok(err, "search with one worker") {
		return
	}

	enum := opts.Enum
	enum.Procs, enum.HasMem2 = sys.Procs, sys.Mem2.Present()
	reps, ok := e.replicas(&t, "search", m, []searchCase{{sys, enum}}, false)
	if !ok {
		return
	}
	rep := reps[0]
	e.ok(rep.matches(ref.Evaluated, ref.Feasible, ref.PreScreened, ref.SubtreePruned, ref.CacheHits), "replica vs search")
	e.check(rep.found == ref.Found() && (!rep.found || reflect.DeepEqual(rep.best, ref.Best)),
		"replica's best strategy differs from the search's")

	var prog search.Progress
	ow := opts
	ow.Workers, ow.Progress = e.workers, &prog
	start = time.Now()
	_, err = search.Execution(ctx, m, sys, ow)
	t.parallel = time.Since(start)
	e.ok(err, "search with all workers")
	snap := prog.Snapshot()
	t.progEval, t.progHits = snap.Evaluated, snap.CacheHits
	t.report(e)
}

// traceSweep traces every size-sweep command: the untraced single-worker
// sweep, a replica of every size drawing its runner from one shared
// perf.RunnerGroup, and the sweep on all workers.
func traceSweep(e *env) {
	ctx := context.Background()
	var t trainingTrace
	for _, c := range genSweep(e.seed, e.quick) {
		m, tmpl, err := c.resolve()
		if !e.ok(err, "resolving the sweep") {
			return
		}
		sysAt := func(n int) system.System { return tmpl.WithProcs(n) }
		sizes := search.Sizes(c.Step, c.Max)
		opts := search.Options{Enum: execution.EnumOptions{Features: execution.FeatureAll, PinBeneficial: true, MaxInterleave: 4}}

		var prog1 search.Progress
		o1 := opts
		o1.Workers, o1.Progress = 1, &prog1
		start := time.Now()
		pts, err := search.SystemSize(ctx, m, sysAt, sizes, o1)
		t.walk += time.Since(start)
		if !e.ok(err, "sweep with one worker") {
			return
		}

		cases := make([]searchCase, len(sizes))
		for i, n := range sizes {
			enum := opts.Enum
			enum.Procs, enum.HasMem2 = n, tmpl.Mem2.Present()
			cases[i] = searchCase{sysAt(n), enum}
		}
		reps, ok := e.replicas(&t, c.Model, m, cases, true)
		if !ok {
			return
		}
		var sum replica
		for i, rep := range reps {
			sum.add(rep)
			p := pts[i]
			e.check(rep.feasible == p.Feasible && rep.found == p.Found && (!rep.found || reflect.DeepEqual(rep.best, p.Best)),
				"%s at %d procs: replica's best or feasible count differs from the sweep's", c.Model, sizes[i])
		}
		snap := prog1.Snapshot()
		e.ok(sum.matches(int(snap.Evaluated), int(snap.Feasible), int(snap.PreScreened), int(snap.SubtreePruned), int(snap.CacheHits)),
			"replica vs sweep "+c.Model)

		var prog search.Progress
		ow := opts
		ow.Workers, ow.Progress = e.workers, &prog
		start = time.Now()
		_, err = search.SystemSize(ctx, m, sysAt, sizes, ow)
		t.parallel += time.Since(start)
		e.ok(err, "sweep with all workers")
		snap = prog.Snapshot()
		t.progEval += snap.Evaluated
		t.progHits += snap.CacheHits
	}
	t.report(e)
}

// traceServe traces each serve-sweep scenario: one serving.Search per
// budget, traced between two untraced passes and checked against the
// single-worker sweep, and a replay of inference.Estimate over the engine
// grid the full budget enumerates.
func traceServe(e *env) {
	ctx := context.Background()
	sizes := search.Sizes(serveStep, serveMax(e.quick))
	opts := serving.Options{Workers: 1}
	var traced, untraced time.Duration
	var engines, prescreened, frontier, calls, feasible int
	// searchAll runs one search per budget, recording a span per search on
	// a non-nil tracer.
	searchAll := func(tr *tracer, spec serving.Spec, name string) ([]serving.Result, time.Duration, error) {
		start := time.Now()
		out := make([]serving.Result, len(sizes))
		for i, n := range sizes {
			sp := spec
			sp.Space.Procs = n
			s := time.Now()
			res, err := serving.Search(ctx, sp, opts)
			tr.add("serving.search", s, time.Now(), 0, name, laneServing)
			if err != nil {
				return nil, 0, err
			}
			out[i] = res
		}
		return out, time.Since(start), nil
	}
	for _, sc := range genScenarios(e.seed, e.quick) {
		spec, err := sc.Resolve()
		if !e.ok(err, "resolving "+sc.Name) {
			return
		}
		pts, err := serving.Sweep(ctx, spec, sizes, opts)
		if !e.ok(err, "serving sweep") {
			return
		}
		var results []serving.Result
		t, u, err := overheadPasses(
			func() (time.Duration, error) {
				_, wall, err := searchAll(nil, spec, sc.Name)
				return wall, err
			},
			func() (time.Duration, error) {
				var wall time.Duration
				var err error
				results, wall, err = searchAll(e.tr, spec, sc.Name)
				return wall, err
			})
		if !e.ok(err, "serving searches") {
			return
		}
		untraced += u
		traced += t
		for i, res := range results {
			e.check(reflect.DeepEqual(res, pts[i].Result), "%s at %d procs: search differs from the sweep", sc.Name, sizes[i])
			engines += res.Evaluated
			prescreened += res.PreScreened
			frontier += len(res.Frontier)
		}
		n, ok := replayEstimates(e, spec)
		calls += n
		feasible += ok
	}
	e.set("serving.search_s", e.tr.total("serving.search").Seconds())
	e.set("serving.engines", float64(engines))
	e.set("serving.prescreened_frac", ratio(prescreened, engines))
	e.set("serving.feasible_frac", ratio(feasible, calls))
	e.set("serving.frontier_points", float64(frontier))
	if calls > 0 {
		e.set("inference.estimate_ns", float64(e.tr.total("inference.estimate").Nanoseconds())/float64(calls))
	}
	if untraced > 0 {
		e.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	}
}

// replayEstimates prices every engine of the spec's full budget — tp over
// the head-count divisors, pp over the block-count divisors, in-flight
// batches in powers of two up to the space's cap — at the mix's mean request,
// as the serving search's steady-state estimate does, with a span per call.
// It returns the number of calls and how many priced a feasible engine.
func replayEstimates(e *env, spec serving.Spec) (int, int) {
	m := spec.Model
	pbar, gbar := spec.Workload.MeanPromptLen(), spec.Workload.MeanGenLen()
	calls, feasible := 0, 0
	for tp := 1; tp <= m.AttnHeads; tp++ {
		for pp := 1; pp <= m.Blocks; pp++ {
			if m.AttnHeads%tp != 0 || m.Blocks%pp != 0 || tp*pp > spec.Space.Procs {
				continue
			}
			st := execution.Strategy{TP: tp, PP: pp, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
				Recompute: execution.RecomputeNone, TPRSAG: true, Inference: true}
			sys := spec.System.WithProcs(tp * pp)
			for b := 1; b <= spec.Space.MaxBatch; b *= 2 {
				start := time.Now()
				_, err := inference.Estimate(m, sys, st, inference.Workload{PromptLen: pbar, GenLen: gbar, Batch: b})
				e.tr.add("inference.estimate", start, time.Now(), 0, spec.Model.Name, laneInference)
				calls++
				switch {
				case err == nil:
					feasible++
				case !errors.Is(err, perf.ErrInfeasible):
					e.ok(err, "inference estimate")
				}
			}
		}
	}
	return calls, feasible
}
