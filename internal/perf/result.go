// Package perf is the core of the Calculon reproduction: the analytical
// performance model of §2.4. Given the three specifications — LLM, system,
// and execution strategy — it produces a complete estimate of batch time
// with a breakdown (forward, backward, recompute, optimizer, pipeline
// bubble, exposed TP/PP/DP communication, exposed offload transfers), a
// memory breakdown per tier (weights, weight gradients, activations,
// activation gradients, optimizer state), sample rate, model-FLOP
// utilization, and the offload bandwidth/capacity requirements of §6.
package perf

import (
	"errors"
	"fmt"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/units"
)

// ErrInfeasible tags configurations that cannot run — insufficient memory,
// missing offload tier, too few processors, or structural rule violations.
// Search engines count these rather than failing.
var ErrInfeasible = errors.New("infeasible configuration")

// verdictKind classifies one evaluation's feasibility outcome.
type verdictKind uint8

const (
	feasible        verdictKind = iota
	invalidStrategy             // a structural rule fails (Strategy.Validate)
	preScreened                 // the phase-1 analytic bound rejects it
	mem1Overflow
	mem2Overflow
)

// verdict is one evaluation's feasibility outcome as a plain value: the kind
// plus the raw operands its message needs. The evaluators return it unboxed,
// so the search rejects millions of configurations without allocating or
// formatting anything; err boxes it into an error only for callers that
// want one, and the message is formatted (with the log10-based unit
// rendering it triggers) only when someone calls Error().
type verdict struct {
	kind       verdictKind
	screen     execution.ScreenVerdict // preScreened
	need, have units.Bytes             // mem1Overflow, mem2Overflow
	cause      error                   // invalidStrategy
}

// err returns nil for a feasible verdict and an ErrInfeasible-wrapped error
// otherwise.
func (v verdict) err() error {
	if v.kind == feasible {
		return nil
	}
	return &infeasibleError{v}
}

type infeasibleError struct{ v verdict }

func (e *infeasibleError) Error() string {
	v := &e.v
	var why string
	switch v.kind {
	case invalidStrategy:
		why = v.cause.Error()
	case preScreened:
		why = v.screen.Err().Error()
	case mem1Overflow:
		why = fmt.Sprintf("mem1 needs %v of %v", v.need, v.have)
	default:
		why = fmt.Sprintf("mem2 needs %v of %v", v.need, v.have)
	}
	return ErrInfeasible.Error() + ": " + why
}

func (e *infeasibleError) Unwrap() error { return ErrInfeasible }

// TimeBreakdown reports where the batch time went (all values are per batch
// on the critical path; the Exposed entries are the blocking portions of the
// corresponding communication totals).
type TimeBreakdown struct {
	FwdPass   units.Seconds `json:"fw_pass"`
	BwdPass   units.Seconds `json:"bw_pass"`
	Recompute units.Seconds `json:"fw_recompute"`
	OptimStep units.Seconds `json:"optim_step"`
	PPBubble  units.Seconds `json:"pp_bubble"`

	TPComm units.Seconds `json:"tp_comm"`
	PPComm units.Seconds `json:"pp_comm"`
	DPComm units.Seconds `json:"dp_comm"`

	TPExposed units.Seconds `json:"tp_exposed"`
	PPExposed units.Seconds `json:"pp_exposed"`
	DPExposed units.Seconds `json:"dp_exposed"`

	OffloadTotal   units.Seconds `json:"offload_total"`
	OffloadExposed units.Seconds `json:"offload_exposed"`
}

// Total is the batch time: every compute phase plus exposed communication
// and exposed offload transfers.
func (t TimeBreakdown) Total() units.Seconds {
	return t.FwdPass + t.BwdPass + t.Recompute + t.OptimStep + t.PPBubble +
		t.TPExposed + t.PPExposed + t.DPExposed + t.OffloadExposed
}

// MemBreakdown reports the bytes used in one memory tier by category,
// matching the paper's Fig. 3/4 stacks.
type MemBreakdown struct {
	Weights     units.Bytes `json:"weights"`
	WeightGrads units.Bytes `json:"weight_grads"`
	Activations units.Bytes `json:"activations"`
	ActGrads    units.Bytes `json:"act_grads"`
	Optimizer   units.Bytes `json:"optimizer"`
}

// Total is the tier's total consumption.
func (m MemBreakdown) Total() units.Bytes {
	return m.Weights + m.WeightGrads + m.Activations + m.ActGrads + m.Optimizer
}

// Result is the complete output of one model evaluation.
type Result struct {
	Model    model.LLM          `json:"model"`
	System   string             `json:"system"`
	Strategy execution.Strategy `json:"strategy"`

	// BatchTime is the end-to-end time of one training batch (or one
	// forward pass over the batch for inference strategies).
	BatchTime units.Seconds `json:"batch_time"`
	// SampleRate is samples processed per second.
	SampleRate float64 `json:"sample_rate"`
	// MFU is model-FLOP utilization: useful model FLOPs (no recompute)
	// divided by peak matrix FLOPs of the processors used.
	MFU float64 `json:"mfu"`

	Time TimeBreakdown `json:"time"`
	// Mem1 and Mem2 are the per-processor consumption of each tier.
	Mem1 MemBreakdown `json:"mem1"`
	Mem2 MemBreakdown `json:"mem2"`

	// OffloadBWRequired is Eq. 1's seamless-offload bandwidth: the second-
	// level memory bandwidth at which no offload time would be exposed.
	OffloadBWRequired units.BytesPerSec `json:"offload_bw_required"`
	// OffloadBWUsed is the bandwidth actually sustained on the tier.
	OffloadBWUsed units.BytesPerSec `json:"offload_bw_used"`

	// ProcsUsed is t·p·d.
	ProcsUsed int `json:"procs_used"`
}

// Keys are the three figures the search folds a feasible leaf by. The
// exact keys (Runner.RunLeaf) are bit for bit its Result's BatchTime,
// SampleRate and Mem1.Total(); a profile slot's bound keys
// (SegmentPass.Bound) and the floors have a Mem1 and a BatchTime no higher
// (a SampleRate no lower) than those of any leaf they cover.
type Keys struct {
	BatchTime  units.Seconds
	SampleRate float64
	Mem1       units.Bytes
}

func (r Result) String() string {
	return fmt.Sprintf("%s on %s %v: batch=%v rate=%.1f/s MFU=%.1f%% mem1=%v mem2=%v",
		r.Model.Name, r.System, r.Strategy, r.BatchTime, r.SampleRate, 100*r.MFU,
		r.Mem1.Total(), r.Mem2.Total())
}
