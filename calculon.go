// Package calculon is a Go implementation of Calculon (Isaev et al.,
// SC '23): an analytical performance model and codesign search tool for
// training and serving transformer-based large language models on
// distributed accelerator systems.
//
// An analysis takes three specifications:
//
//   - an LLM (hidden size, attention heads, sequence length, block count,
//     global batch) — see Preset and the model presets;
//   - a System (matrix/vector throughput with size-dependent efficiency, a
//     two-tier memory hierarchy, and networks with collective models) — see
//     A100 and H100;
//   - a Strategy (TP/PP/DP degrees, microbatch, pipeline schedule,
//     recompute, sequence parallelism, communication overlap, optimizer
//     sharding, fused layers, tensor offloading).
//
// Run evaluates a single point in microseconds and returns the batch time
// with a full time and memory breakdown. SearchExecution exhaustively
// explores every execution strategy for a system; SearchSystemSize sweeps
// processor counts to expose efficiency cliffs; SearchBudget chooses a
// hardware design under a price budget.
package calculon

import (
	"context"

	"calculon/internal/cost"
	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// Core specification types.
type (
	// LLM is the application specification (§2.1 of the paper).
	LLM = model.LLM
	// System is the hardware specification (§2.2).
	System = system.System
	// Memory is one tier of a System's memory hierarchy.
	Memory = system.Memory
	// Network is one interconnect of a System.
	Network = system.Network
	// Strategy is the execution/software specification (§2.3, Table 1).
	Strategy = execution.Strategy
	// Result is a complete performance estimate (§2.4).
	Result = perf.Result
	// TimeBreakdown details where the batch time went.
	TimeBreakdown = perf.TimeBreakdown
	// MemBreakdown details a memory tier's consumption.
	MemBreakdown = perf.MemBreakdown
)

// Scalar quantity types.
type (
	// Bytes is a capacity or data size.
	Bytes = units.Bytes
	// Seconds is a duration.
	Seconds = units.Seconds
	// BytesPerSec is a bandwidth.
	BytesPerSec = units.BytesPerSec
)

// Execution-strategy enums and search options.
type (
	// RecomputeMode selects activation recomputation (none/attn/full).
	RecomputeMode = execution.RecomputeMode
	// TPOverlapMode selects tensor-parallel comm overlap (none/pipe/ring).
	TPOverlapMode = execution.TPOverlapMode
	// FeatureSet restricts searches to an optimization family.
	FeatureSet = execution.FeatureSet
	// EnumOptions bounds strategy enumeration.
	EnumOptions = execution.EnumOptions
	// SearchOptions configures SearchExecution.
	SearchOptions = search.Options
	// SearchWatch observes a search: Progress, ETA and the OnProgress
	// ticker. SearchOptions embeds it.
	SearchWatch = search.Watch
	// SearchProgress exposes live counters of a running search; attach one
	// via SearchOptions.Progress and Snapshot it from any goroutine.
	SearchProgress = search.Progress
	// SearchProgressSnapshot is one observation of a running search.
	SearchProgressSnapshot = search.ProgressSnapshot
	// SearchResult is the outcome of SearchExecution.
	SearchResult = search.Result
	// ScalingPoint is one system size of a SearchSystemSize sweep.
	ScalingPoint = search.ScalingPoint
	// Design is one hardware design point of SearchBudget.
	Design = cost.Design
	// BudgetOptions configures SearchBudget.
	BudgetOptions = cost.SweepOptions
	// BudgetEvaluation is one design row of a SearchBudget result.
	BudgetEvaluation = cost.Evaluation
)

// Re-exported constants.
const (
	RecomputeNone = execution.RecomputeNone
	RecomputeAttn = execution.RecomputeAttn
	RecomputeFull = execution.RecomputeFull

	TPOverlapNone = execution.TPOverlapNone
	TPOverlapPipe = execution.TPOverlapPipe
	TPOverlapRing = execution.TPOverlapRing

	FeatureBaseline = execution.FeatureBaseline
	FeatureSeqPar   = execution.FeatureSeqPar
	FeatureAll      = execution.FeatureAll

	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
	TiB = units.TiB
	GB  = units.GB
	TB  = units.TB
)

// ErrInfeasible tags configurations that cannot run (memory overflow,
// structural violations, missing offload tier).
var ErrInfeasible = perf.ErrInfeasible

// Run evaluates one (LLM, system, strategy) configuration.
func Run(m LLM, sys System, st Strategy) (Result, error) { return perf.Run(m, sys, st) }

// SearchExecution exhaustively evaluates every execution strategy for the
// model on the system (§5.1). Cancelling the context stops the search within
// one work chunk; the partial counters are still returned alongside
// ctx.Err(). Attach a SearchProgress through opts for live observability.
func SearchExecution(ctx context.Context, m LLM, sys System, opts SearchOptions) (SearchResult, error) {
	return search.Execution(ctx, m, sys, opts)
}

// SearchSystemSize runs a full execution search at each processor count,
// exposing the efficiency cliffs of §5.2.
func SearchSystemSize(ctx context.Context, m LLM, sysAt func(procs int) System, sizes []int, opts SearchOptions) ([]ScalingPoint, error) {
	return search.SystemSize(ctx, m, sysAt, sizes, opts)
}

// SearchBudget evaluates hardware designs under a price budget (§7).
func SearchBudget(ctx context.Context, models []LLM, designs []Design, opts BudgetOptions) ([]BudgetEvaluation, error) {
	return cost.BudgetSearch(ctx, models, designs, opts)
}

// AllDesigns returns the paper's 16 HBM×DDR design grid for SearchBudget.
func AllDesigns() []Design { return cost.AllDesigns() }

// Preset returns a named LLM configuration (e.g. "gpt3-175B",
// "turing-530B", "megatron-1T"); see PresetNames.
func Preset(name string) (LLM, error) { return model.Preset(name) }

// MustPreset is Preset for statically known names.
func MustPreset(name string) LLM { return model.MustPreset(name) }

// PresetNames lists the available LLM presets.
func PresetNames() []string { return model.PresetNames() }

// A100 returns a Selene-like A100-80GiB system of the given size.
func A100(procs int) System { return system.A100(procs) }

// H100 returns the §7 H100-based design with the given HBM3 capacity and
// optional DDR5 offload capacity (0 for none).
func H100(procs int, hbm, ddr Bytes) System { return system.H100(procs, hbm, ddr) }

// DDR5 builds the 100 GB/s secondary offload memory used in §6/§7.
func DDR5(capacity Bytes) Memory { return system.DDR5(capacity) }

// InfiniteMem2 is the §6 probing tier: unlimited offload capacity and
// bandwidth, for reading off resource requirements.
func InfiniteMem2() Memory { return system.InfiniteMem2() }

// Inference / serving estimates.
type (
	// ServingWorkload describes a request mix for EstimateInference.
	ServingWorkload = inference.Workload
	// ServingResult is a serving estimate: prefill latency, per-token
	// decode latency, throughput, and KV-cache footprint.
	ServingResult = inference.Result
)

// EstimateInference prices an LLM serving workload: a prefill pass over the
// prompt plus bandwidth-aware autoregressive decode with KV-cache
// accounting.
func EstimateInference(m LLM, sys System, st Strategy, w ServingWorkload) (ServingResult, error) {
	return inference.Estimate(m, sys, st, w)
}

// Total cost of ownership.
type (
	// TCOAssumptions price a deployment (capex, power, energy, opex).
	TCOAssumptions = tco.Assumptions
	// RunCost is the duration and dollar cost of one training run.
	RunCost = tco.RunCost
)

// DefaultTCOAssumptions are round 2023-era numbers for an A100-class
// deployment.
func DefaultTCOAssumptions() TCOAssumptions { return tco.DefaultAssumptions() }

// TrainingRunCost converts a performance estimate and a token budget into
// wall-clock time, GPU-hours, energy, and dollars (§6's TCO analysis).
func TrainingRunCost(res Result, tokens float64, a TCOAssumptions) (RunCost, error) {
	return tco.TrainingRun(res, tokens, a)
}
