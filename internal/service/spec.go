// Package service is the long-running face of the search engines: calculond
// wraps it around an HTTP listener. Clients POST a job spec (model + system
// + search options), get a job ID back, and poll status — live
// evaluated/feasible/pre-screened/subtree-pruned counters with an ETA,
// straight from the search's Progress attachment — until the result is
// ready. The pieces compose the repo's existing invariants: a bounded FIFO
// queue feeds one runner per job slot, each with a fixed share of one global
// worker budget (so running jobs never oversubscribe it), every job runs under
// a cancellable context (DELETE cancels, drain cancels, a job timeout
// cancels), per-client rate limiting keeps one poller from starving the
// rest, and all cross-goroutine counters are sync/atomic only.
package service

import (
	"context"
	"fmt"
	"time"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
	"calculon/internal/tco"
)

// SearchSpec is the client-facing subset of search.Options: what to search,
// not how to schedule it (workers come from the daemon's budget, progress
// attachment from the job machinery).
type SearchSpec struct {
	// Features selects the optimization family: baseline|seqpar|all
	// (default all).
	Features string `json:"features,omitempty"`
	// MaxInterleave caps the pipeline-interleave factor (0 = unlimited).
	MaxInterleave int `json:"max_interleave,omitempty"`
	// TopK retains the best K configurations in the result (default 1).
	TopK int `json:"top_k,omitempty"`
	// Pareto retains the time-vs-memory Pareto front in the result.
	Pareto bool `json:"pareto,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock run; 0 means no limit.
	// A timed-out job fails with a deadline error and partial counters.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// DisableStore bypasses the daemon's persistent result store for this
	// job: no cached verdict is served and the fresh one is not persisted.
	// Results are identical either way (the store serves bit-identical
	// verdicts); the escape hatch exists for A/B measurement and to force
	// re-evaluation.
	DisableStore bool `json:"disable_store,omitempty"`
}

// ServingJobSpec is the serving-search job kind: the workload, the
// deployment space, and optionally a separate prefill-pool system and cost
// assumptions. A job carrying one runs serving.Search instead of the
// training-strategy search; the training-only Search fields must then stay
// empty (TimeoutSeconds and DisableStore still apply).
type ServingJobSpec struct {
	Workload serving.Workload `json:"workload"`
	Space    serving.Space    `json:"space"`
	// PrefillSystem, when present, is the system the disaggregated prefill
	// pool deploys on.
	PrefillSystem *config.SystemRef `json:"prefill_system,omitempty"`
	// Assumptions price the deployments; absent means tco.DefaultAssumptions.
	Assumptions *tco.Assumptions `json:"assumptions,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: the same model/system references the
// CLI's scenario files use, plus the search options. A spec with a serving
// section is a serving co-design job; otherwise it is a training-strategy
// search.
type JobSpec struct {
	Model   config.ModelRef  `json:"model"`
	System  config.SystemRef `json:"system"`
	Search  SearchSpec       `json:"search"`
	Serving *ServingJobSpec  `json:"serving,omitempty"`
}

// prepared is a resolved, validated job spec ready to run: a serving search
// when servingSpec is set, a training search otherwise.
type prepared struct {
	m           model.LLM
	sys         system.System
	opts        search.Options
	servingSpec *serving.Spec
	timeout     time.Duration
	// disableStore keeps the daemon's result store away from the job.
	disableStore bool
}

// prepare resolves the references and validates everything client-supplied,
// so a bad spec is rejected at submit time (400) rather than failing the job
// after it queued.
func (s JobSpec) prepare() (prepared, error) {
	if s.Search.TimeoutSeconds < 0 {
		return prepared{}, fmt.Errorf("service: negative timeout_seconds %g", s.Search.TimeoutSeconds)
	}
	var p prepared
	var err error
	if s.Serving != nil {
		p, err = s.prepareServing()
	} else {
		p, err = s.prepareTraining()
	}
	p.disableStore = s.Search.DisableStore
	p.timeout = time.Duration(s.Search.TimeoutSeconds * float64(time.Second))
	return p, err
}

// prepareTraining resolves a training-strategy search job.
func (s JobSpec) prepareTraining() (prepared, error) {
	var p prepared
	var err error
	if p.m, err = s.Model.Resolve(); err != nil {
		return p, err
	}
	if p.sys, err = s.System.Resolve(); err != nil {
		return p, err
	}
	features := execution.FeatureSet(s.Search.Features)
	if features == "" {
		features = execution.FeatureAll
	}
	if !features.Valid() {
		return p, fmt.Errorf("service: unknown feature set %q (want baseline|seqpar|all)", s.Search.Features)
	}
	topK := s.Search.TopK
	switch {
	case topK < 0:
		return p, fmt.Errorf("service: negative top_k %d", topK)
	case topK == 0:
		topK = 1
	}
	p.opts = search.Options{
		Enum: execution.EnumOptions{
			Procs:         p.sys.Procs,
			Features:      features,
			MaxInterleave: s.Search.MaxInterleave,
		},
		TopK:   topK,
		Pareto: s.Search.Pareto,
	}
	return p, p.opts.Enum.Validate()
}

// prepareServing resolves a serving job, reusing the scenario-file resolver
// so the HTTP spec and configs/scenarios/serving-*.json accept the same
// shapes and reject the same mistakes.
func (s JobSpec) prepareServing() (prepared, error) {
	if s.Search.Features != "" || s.Search.MaxInterleave != 0 || s.Search.TopK != 0 || s.Search.Pareto {
		return prepared{}, fmt.Errorf("service: a serving job takes no training search options (features/max_interleave/top_k/pareto)")
	}
	sc := config.ServingScenario{
		Model:         s.Model,
		System:        s.System,
		PrefillSystem: s.Serving.PrefillSystem,
		Workload:      s.Serving.Workload,
		Space:         s.Serving.Space,
		Assumptions:   s.Serving.Assumptions,
	}
	spec, err := sc.Resolve()
	if err != nil {
		return prepared{}, err
	}
	return prepared{servingSpec: &spec}, nil
}

// run executes the job's search on workers workers, flushing its counters
// into prog and consulting store unless it is nil, and returns the wire
// form of its result; the caller fills the ID, state and error. A failed or
// cancelled search still returns its result: counters up to the stopping
// point.
func (p *prepared) run(ctx context.Context, workers int, prog *search.Progress, store *resultstore.Store) (JobResult, error) {
	watch := search.Watch{Progress: prog}
	// A typed-nil *Store behind a Cache interface would defeat the engines'
	// nil checks, hence the guards.
	if p.servingSpec != nil {
		opts := serving.Options{Workers: workers, Watch: watch}
		if store != nil {
			opts.Cache = store.ServingCache()
		}
		res, err := serving.Search(ctx, *p.servingSpec, opts)
		return JobResult{
			Evaluated: res.Evaluated, Feasible: res.Feasible, PreScreened: res.PreScreened,
			Found: res.Best != nil, Serving: &res,
		}, err
	}
	opts := p.opts
	opts.Workers = workers
	opts.Watch = watch
	if store != nil {
		opts.Cache = store
	}
	res, err := search.Execution(ctx, p.m, p.sys, opts)
	out := JobResult{
		Evaluated: res.Evaluated, Feasible: res.Feasible, PreScreened: res.PreScreened,
		SubtreePruned: res.SubtreePruned, CacheHits: res.CacheHits, Found: res.Found(),
	}
	if res.Found() {
		out.Best, out.Top, out.Pareto = &res.Best, res.Top, res.Pareto
	}
	return out, err
}
