// Package execution defines the software side of a Calculon analysis: the
// execution strategy (§2.3 of the paper). A strategy picks the degrees of
// tensor, pipeline, and data parallelism, the microbatch size, and switches
// for every optimization surveyed in Table 1 — recompute, sequence
// parallelism, pipeline scheduling, communication-overlap modes, optimizer
// sharding, fused element-wise layers, and tensor offloading.
package execution

import (
	"fmt"

	"calculon/internal/model"
)

// RecomputeMode selects how much of the forward pass is re-executed during
// the backward pass to save activation memory (Table 1: full/attn/none).
type RecomputeMode string

const (
	// RecomputeNone stores every activation (fastest, most memory).
	RecomputeNone RecomputeMode = "none"
	// RecomputeAttn re-executes only the attention-matrix layers (QKᵀ,
	// softmax, dropout, AV) — "selective recomputation".
	RecomputeAttn RecomputeMode = "attn"
	// RecomputeFull stores only each block's input and re-runs the whole
	// block forward during backward.
	RecomputeFull RecomputeMode = "full"
)

// Valid reports whether the mode is one of the defined constants.
func (m RecomputeMode) Valid() bool {
	switch m {
	case RecomputeNone, RecomputeAttn, RecomputeFull:
		return true
	}
	return false
}

// TPOverlapMode selects how tensor-parallel communication is overlapped with
// computation (Table 1: none/pipe/ring [52]).
type TPOverlapMode string

const (
	// TPOverlapNone exposes all TP communication.
	TPOverlapNone TPOverlapMode = "none"
	// TPOverlapPipe pipelines the GEMM with the collective in coarse chunks,
	// hiding a moderate fraction.
	TPOverlapPipe TPOverlapMode = "pipe"
	// TPOverlapRing fuses the collective into the GEMM ring schedule, hiding
	// nearly all of it.
	TPOverlapRing TPOverlapMode = "ring"
)

// Valid reports whether the mode is one of the defined constants.
func (m TPOverlapMode) Valid() bool {
	switch m {
	case TPOverlapNone, TPOverlapPipe, TPOverlapRing:
		return true
	}
	return false
}

// MaxHiddenFraction is the largest HiddenFraction of any overlap mode.
const MaxHiddenFraction = 0.9

// HiddenFraction returns the fraction of TP communication time hidden behind
// compute for this mode.
func (m TPOverlapMode) HiddenFraction() float64 {
	switch m {
	case TPOverlapPipe:
		return 0.5
	case TPOverlapRing:
		return MaxHiddenFraction
	default:
		return 0
	}
}

// Strategy is the full execution configuration.
type Strategy struct {
	// TP, PP, DP are the tensor/pipeline/data parallelism degrees t, p, d.
	// Their product is the number of processors used.
	TP int `json:"tp"`
	PP int `json:"pp"`
	DP int `json:"dp"`
	// Microbatch is the per-pipeline microbatch size m (samples).
	Microbatch int `json:"microbatch"`
	// Interleave is the pipeline interleaving factor v (1 = plain schedule):
	// each processor owns v chunks of consecutive blocks (Fig. 2).
	Interleave int `json:"interleave"`
	// OneFOneB enables the memory-saving 1F1B schedule; required for
	// interleaving. When false the schedule is GPipe-like (all forward then
	// all backward), which holds activations for every in-flight microbatch.
	OneFOneB bool `json:"one_f_one_b"`

	Recompute   RecomputeMode `json:"recompute"`
	SeqParallel bool          `json:"seq_parallel"`
	// TPRSAG replaces each TP all-reduce with reduce-scatter + all-gather
	// so that pipeline point-to-point traffic can be sent sharded.
	TPRSAG bool `json:"tp_rs_ag"`
	// TPRedoForSP re-does the gather redundantly in backward to trade
	// network for memory when sequence parallelism is on ("TP redo for SP").
	TPRedoForSP bool          `json:"tp_redo_for_sp"`
	TPOverlap   TPOverlapMode `json:"tp_overlap"`
	DPOverlap   bool          `json:"dp_overlap"`
	// PPRSAG sends pipeline p2p tensors sharded across the TP group
	// (PP RS+AG, Table 1 [20]).
	PPRSAG bool `json:"pp_rs_ag"`
	// OptimSharding shards optimizer state across the DP group (ZeRO-1) and
	// turns the gradient all-reduce into reduce-scatter + all-gather.
	OptimSharding bool `json:"optim_sharding"`
	// FusedLayers fuses adjacent element-wise layers, removing their
	// intermediate memory round-trips and stored activations.
	FusedLayers bool `json:"fused_layers"`

	// Offload switches stash the corresponding tensors in second-level
	// memory, double-buffering per Fig. 8.
	WeightOffload bool `json:"weight_offload"`
	ActOffload    bool `json:"act_offload"`
	OptimOffload  bool `json:"optim_offload"`

	// Inference switches the model to a forward-only estimate: no backward
	// pass, no gradients, no optimizer state or step.
	Inference bool `json:"inference,omitempty"`
}

// Procs returns the number of processors the strategy occupies. The
// pointer receiver keeps the per-leaf callers (the pre-screen's fit check
// and Result assembly) from copying the whole strategy.
func (s *Strategy) Procs() int { return s.TP * s.PP * s.DP }

// Normalize fills defaulted fields in place: zero Microbatch/Interleave
// become 1, empty modes become "none".
func (s *Strategy) Normalize() {
	if s.Microbatch == 0 {
		s.Microbatch = 1
	}
	if s.Interleave == 0 {
		s.Interleave = 1
	}
	if s.Recompute == "" {
		s.Recompute = RecomputeNone
	}
	if s.TPOverlap == "" {
		s.TPOverlap = TPOverlapNone
	}
}

// Validate checks the strategy's internal and model-relative feasibility
// rules. System-relative checks (memory capacity, offload tier presence,
// processor count) live in the performance model, which has the system.
//
// It is the composition of ValidateShape and ValidateToggles, in that
// order, so the first failing rule — and its message — is the same whether
// a caller runs Validate or the two halves.
func (s *Strategy) Validate(m *model.LLM) error {
	if err := s.ValidateShape(m); err != nil {
		return err
	}
	return s.ValidateToggles()
}

// ValidateShape checks the rules over the shape fields: the parallelism
// degrees, microbatch size, and interleaving factor against the model, and
// the schedule the interleaving needs. It reads no other field, so two
// strategies that agree on TP, PP, DP, Microbatch, Interleave and OneFOneB
// (for the same model) get the same verdict.
func (s *Strategy) ValidateShape(m *model.LLM) error {
	if s.TP < 1 || s.PP < 1 || s.DP < 1 {
		return fmt.Errorf("execution: parallelism degrees must be ≥1, got (%d,%d,%d)", s.TP, s.PP, s.DP)
	}
	if s.TP > m.AttnHeads {
		return fmt.Errorf("execution: TP=%d exceeds attention heads %d", s.TP, m.AttnHeads)
	}
	if s.PP > m.Blocks {
		return fmt.Errorf("execution: PP=%d exceeds blocks %d", s.PP, m.Blocks)
	}
	if s.DP > m.Batch {
		return fmt.Errorf("execution: DP=%d exceeds batch %d", s.DP, m.Batch)
	}
	if m.Batch%s.DP != 0 {
		return fmt.Errorf("execution: DP=%d does not divide batch %d", s.DP, m.Batch)
	}
	perPipe := m.Batch / s.DP
	if s.Microbatch < 1 || s.Microbatch > perPipe {
		return fmt.Errorf("execution: microbatch %d outside 1..%d", s.Microbatch, perPipe)
	}
	if perPipe%s.Microbatch != 0 {
		return fmt.Errorf("execution: microbatch %d does not divide per-pipeline batch %d", s.Microbatch, perPipe)
	}
	if s.Interleave < 1 || s.Interleave > s.BlocksPerProc(m) {
		return fmt.Errorf("execution: interleave %d outside 1..%d", s.Interleave, s.BlocksPerProc(m))
	}
	if s.Interleave > 1 && !s.OneFOneB {
		return fmt.Errorf("execution: interleaving requires the 1F1B schedule")
	}
	if s.Interleave > 1 && s.PP == 1 {
		return fmt.Errorf("execution: interleaving is meaningless without pipeline parallelism")
	}
	return nil
}

// ValidateToggles checks the rules over every field outside the shape:
// the recompute and overlap modes, the dependencies between the
// communication switches, and the techniques inference excludes. It reads
// no model.
func (s *Strategy) ValidateToggles() error {
	if !s.Recompute.Valid() {
		return fmt.Errorf("execution: bad recompute mode %q", s.Recompute)
	}
	if !s.TPOverlap.Valid() {
		return fmt.Errorf("execution: bad TP overlap mode %q", s.TPOverlap)
	}
	if s.SeqParallel && !s.TPRSAG {
		return fmt.Errorf("execution: sequence parallelism requires TP RS+AG communication")
	}
	if s.TPRedoForSP && !s.SeqParallel {
		return fmt.Errorf("execution: TP redo requires sequence parallelism")
	}
	if s.PPRSAG && !s.TPRSAG {
		return fmt.Errorf("execution: PP RS+AG requires TP RS+AG sharded boundaries")
	}
	if s.Inference {
		if s.Recompute != RecomputeNone {
			return fmt.Errorf("execution: recompute is a training-only technique")
		}
		if s.OptimSharding || s.OptimOffload || s.DPOverlap {
			return fmt.Errorf("execution: optimizer/gradient techniques are training-only")
		}
		if s.WeightOffload || s.ActOffload {
			return fmt.Errorf("execution: training offload flags do not apply to inference (use the serving workload's KVOffload)")
		}
	}
	return nil
}

// BlocksPerProc returns the number of transformer blocks resident on the
// busiest processor: ceil(L/p). Uneven splits are allowed — they are what
// produces the paper's "efficiency cliffs" — and the busiest stage bounds
// the pipeline's throughput.
func (s *Strategy) BlocksPerProc(m *model.LLM) int {
	return (m.Blocks + s.PP - 1) / s.PP
}

// BlocksPerChunk returns the number of consecutive blocks in each interleave
// chunk on the busiest processor.
func (s *Strategy) BlocksPerChunk(m *model.LLM) int {
	bp := s.BlocksPerProc(m)
	return (bp + s.Interleave - 1) / s.Interleave
}

// Microbatches returns n, the number of microbatches per pipeline pass.
func (s *Strategy) Microbatches(m *model.LLM) int {
	return m.Batch / s.DP / s.Microbatch
}

func (s Strategy) String() string {
	return fmt.Sprintf("(t=%d,p=%d,d=%d,m=%d,v=%d,recomp=%s,sp=%v,redo=%v,ppRSAG=%v,fused=%v,ovl=%s/%v,shard=%v,off=%v%v%v)",
		s.TP, s.PP, s.DP, s.Microbatch, s.Interleave, s.Recompute, s.SeqParallel,
		s.TPRedoForSP, s.PPRSAG, s.FusedLayers, s.TPOverlap, s.DPOverlap, s.OptimSharding,
		b01(s.WeightOffload), b01(s.ActOffload), b01(s.OptimOffload))
}

func b01(b bool) int {
	if b {
		return 1
	}
	return 0
}
