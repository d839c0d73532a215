// Package serving is the inference-side co-design search: what
// internal/search does for training strategies, this package does for
// serving deployments. The paper frames Calculon as a co-design tool for
// "training and inference of LLMs" (§1); internal/inference prices a single
// serving point, and this package layers the fleet-level questions on top —
// the questions Kundu et al. (arXiv 2407.14645) extend this analytical-model
// style to:
//
//   - continuous batching — a steady-state model of an engine that keeps a
//     fixed number of sequences in flight, admitting a new request whenever
//     one finishes, with the admitted requests' chunked prefill work
//     interfering with decode step time;
//   - prefill/decode disaggregation — prefill and decode run on
//     separately-sized pools (possibly different systems), with the prompt's
//     KV cache shipped from the prefill pool to the decode pool over the
//     scale-out network, priced by internal/comm;
//   - SLO-constrained search — enumerate (tp, pp, batch, KV offload,
//     replica counts, disaggregation split) under a cluster processor
//     budget, keep the deployments meeting the TTFT/TPOT objectives, and
//     return the Pareto frontier of tokens/s/user vs cluster tokens/s vs
//     $/Mtoken (internal/tco);
//   - right-sizing — sweep the processor budget to find the smallest
//     cluster that meets a target, reusing the deterministic enumeration
//     discipline so results are reproducible across worker counts.
package serving

import (
	"fmt"
	"math"

	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// Bucket is one class of requests in the arrival mix: a prompt length, a
// generation length, and the fraction of traffic it represents.
type Bucket struct {
	// PromptLen is the prompt length in tokens.
	PromptLen int `json:"prompt_len"`
	// GenLen is the number of generated tokens per request.
	GenLen int `json:"gen_len"`
	// Weight is the bucket's share of traffic; weights are normalized over
	// the mix, so they need not sum to one.
	Weight float64 `json:"weight"`
}

// SLO bounds per-request latency: the serving search only keeps deployments
// meeting both objectives.
type SLO struct {
	// TTFT is the worst-bucket time-to-first-token bound.
	TTFT units.Seconds `json:"ttft_seconds"`
	// TPOT is the steady-state time-per-output-token bound.
	TPOT units.Seconds `json:"tpot_seconds"`
}

// Workload is the serving request mix plus its latency objectives.
type Workload struct {
	Mix []Bucket `json:"mix"`
	SLO SLO      `json:"slo"`
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if len(w.Mix) == 0 {
		return fmt.Errorf("serving: workload needs at least one mix bucket")
	}
	for i, b := range w.Mix {
		switch {
		case b.PromptLen < 1:
			return fmt.Errorf("serving: bucket %d: prompt length must be ≥1, got %d", i, b.PromptLen)
		case b.GenLen < 1:
			return fmt.Errorf("serving: bucket %d: generation length must be ≥1, got %d", i, b.GenLen)
		case !(b.Weight > 0) || math.IsInf(b.Weight, 1):
			// The weighted means divide by the weight sum; a NaN or
			// infinite weight would make them NaN.
			return fmt.Errorf("serving: bucket %d: weight must be positive and finite, got %g", i, b.Weight)
		}
	}
	// Written as !(x > 0) so a NaN bound, which every comparison would
	// pass, is rejected too; +Inf stays a valid "unbounded".
	if !(w.SLO.TTFT > 0) || !(w.SLO.TPOT > 0) {
		return fmt.Errorf("serving: SLO bounds must be positive, got TTFT %v TPOT %v", w.SLO.TTFT, w.SLO.TPOT)
	}
	return nil
}

// MeanPromptLen returns the traffic-weighted mean prompt length, rounded up
// to a whole token. The steady-state engine is priced at the mean workload.
func (w Workload) MeanPromptLen() int {
	return weightedCeil(w.Mix, func(b Bucket) int { return b.PromptLen })
}

// MeanGenLen returns the traffic-weighted mean generation length, rounded up
// to a whole token.
func (w Workload) MeanGenLen() int {
	return weightedCeil(w.Mix, func(b Bucket) int { return b.GenLen })
}

// weightedCeil folds the traffic mix in slice order; the explicit
// conversion keeps the weighted term FMA-free so the mean workload is the
// same on every architecture.
//
//calculonvet:ordered
func weightedCeil(mix []Bucket, f func(Bucket) int) int {
	var sum, wsum float64
	for _, b := range mix {
		sum += float64(float64(f(b)) * b.Weight)
		wsum += b.Weight
	}
	if wsum <= 0 {
		return 0
	}
	n := int(math.Ceil(sum / wsum))
	if n < 1 {
		n = 1
	}
	return n
}

// Space bounds the deployment enumeration.
type Space struct {
	// Procs is the cluster processor budget every deployment must fit in
	// (all pools combined).
	Procs int `json:"procs"`
	// MaxBatch caps the in-flight batch per replica; batch sizes are
	// enumerated in powers of two up to the cap (plus the cap itself).
	// 0 defaults to 32.
	MaxBatch int `json:"max_batch,omitempty"`
	// MaxTP / MaxPP cap the per-replica parallelism degrees; 0 means
	// bounded only by the model (divisors of heads / blocks) and budget.
	MaxTP int `json:"max_tp,omitempty"`
	MaxPP int `json:"max_pp,omitempty"`
	// MaxReplicas caps the replica count of any one pool; 0 means bounded
	// only by the budget.
	MaxReplicas int `json:"max_replicas,omitempty"`
	// KVOffload also enumerates engines that stash the KV cache in the
	// second memory tier.
	KVOffload bool `json:"kv_offload,omitempty"`
	// Disaggregate also enumerates prefill/decode disaggregated pool
	// splits.
	Disaggregate bool `json:"disaggregate,omitempty"`
}

// Normalize fills defaulted fields.
func (s Space) Normalize() Space {
	if s.MaxBatch == 0 {
		s.MaxBatch = 32
	}
	return s
}

// Validate checks the space bounds.
func (s Space) Validate() error {
	switch {
	case s.Procs < 1:
		return fmt.Errorf("serving: space needs a positive processor budget, got %d", s.Procs)
	case s.MaxBatch < 1:
		return fmt.Errorf("serving: max batch must be ≥1, got %d", s.MaxBatch)
	case s.MaxTP < 0 || s.MaxPP < 0 || s.MaxReplicas < 0:
		return fmt.Errorf("serving: bounds must be non-negative")
	}
	return nil
}

// Spec is one serving search problem: a model, the system(s) to deploy on,
// the workload, the space bounds, and the cost assumptions.
type Spec struct {
	Model  model.LLM
	System system.System
	// PrefillSystem, when non-nil, is the system the disaggregated prefill
	// pool runs on; nil means the prefill pool uses System too.
	PrefillSystem *system.System
	Workload      Workload
	Space         Space
	// Assumptions price the deployments; the zero value is replaced by
	// tco.DefaultAssumptions.
	Assumptions tco.Assumptions
}

// Normalize fills defaulted fields and returns the result.
func (s Spec) Normalize() Spec {
	s.Space = s.Space.Normalize()
	if s.Assumptions == (tco.Assumptions{}) {
		s.Assumptions = tco.DefaultAssumptions()
	}
	return s
}

// Validate checks the spec. The spec must be normalized first.
func (s Spec) Validate() error {
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if err := s.System.Validate(); err != nil {
		return err
	}
	if s.PrefillSystem != nil {
		if err := s.PrefillSystem.Validate(); err != nil {
			return fmt.Errorf("serving: prefill system: %w", err)
		}
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if err := s.Space.Validate(); err != nil {
		return err
	}
	return s.Assumptions.Validate()
}

// Options are the scheduling and diagnostic knobs of a serving search. Like
// search.Options, none of them may change the result — byte-identical output
// across worker counts is the package's contract, pinned by randomized
// equivalence tests.
type Options struct {
	// Workers bounds evaluation concurrency; <=0 means GOMAXPROCS.
	Workers int
	// Watch observes the search: Progress, ETA and the OnProgress ticker.
	search.Watch
	// Cache, when non-nil, serves whole searches from a persistent store
	// and records finished ones (see internal/resultstore). A nil Cache
	// bypasses the store.
	Cache Cache
}

// Cache is a store of finished serving-search verdicts, the serving
// counterpart of search.Cache. Implementations derive the search identity
// from the result-affecting input only (the spec — never Workers or
// callbacks) and must be safe for concurrent use.
type Cache interface {
	// Lookup returns the stored result of this exact search, if any.
	Lookup(spec Spec, opts Options) (Result, bool)
	// Store records a finished search's result; implementations may drop
	// writes.
	Store(spec Spec, opts Options, res Result)
}

// Deployment is one point of the serving design space: an engine
// configuration replicated into a cluster, with its latency, throughput,
// and cost.
type Deployment struct {
	// Seq is the deployment's index in the deterministic enumeration order
	// — the tie-break key, so equal-objective points resolve identically
	// regardless of worker count.
	Seq int `json:"seq"`
	// TP, PP, Batch, KVOffload identify the replica engine.
	TP        int  `json:"tp"`
	PP        int  `json:"pp"`
	Batch     int  `json:"batch"`
	KVOffload bool `json:"kv_offload,omitempty"`
	// Disaggregated marks a split prefill/decode deployment; Replicas then
	// counts decode replicas and PrefillReplicas the prefill pool.
	Disaggregated   bool `json:"disaggregated,omitempty"`
	Replicas        int  `json:"replicas"`
	PrefillReplicas int  `json:"prefill_replicas,omitempty"`
	// Procs is the total processor count across all pools.
	Procs int `json:"procs"`
	// TTFT is the worst-bucket time to first token; TPOT the steady-state
	// time per output token.
	TTFT units.Seconds `json:"ttft_seconds"`
	TPOT units.Seconds `json:"tpot_seconds"`
	// KVTransferTime is the per-request prefill→decode KV shipment time
	// (disaggregated deployments only).
	KVTransferTime units.Seconds `json:"kv_transfer_seconds,omitempty"`
	// UserTokensPerSec is the per-user generation rate (1/TPOT);
	// ClusterTokensPerSec the aggregate generation throughput.
	UserTokensPerSec    float64 `json:"user_tokens_per_sec"`
	ClusterTokensPerSec float64 `json:"cluster_tokens_per_sec"`
	// CostPerMToken is dollars per million generated tokens.
	CostPerMToken float64 `json:"cost_per_mtoken"`
	// DecodeBandwidthBound reports the engine's decode regime.
	DecodeBandwidthBound bool `json:"decode_bandwidth_bound"`
}

// Result is a finished serving search.
type Result struct {
	// Evaluated counts engine configurations examined (including
	// pre-screened ones); PreScreened the subset rejected by the
	// closed-form capacity bound without pricing; Feasible the composed
	// deployments that met both SLOs.
	Evaluated   int `json:"evaluated"`
	Feasible    int `json:"feasible"`
	PreScreened int `json:"pre_screened"`
	// Frontier is the Pareto-optimal set over (tokens/s/user ↑, cluster
	// tokens/s ↑, $/Mtoken ↓), sorted by cost ascending with deterministic
	// tie-breaks.
	Frontier []Deployment `json:"frontier"`
	// Best is the cheapest frontier point (ties broken toward higher
	// per-user rate, then lower Seq); nil when nothing met the SLOs.
	Best *Deployment `json:"best,omitempty"`
}
