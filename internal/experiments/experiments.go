// Package experiments reproduces every table and figure of the paper's
// evaluation: Table 2 (validation), Table 3 (budgeted system search),
// Table 4 / Fig. 12 (strategy comparison), Fig. 3 (single-run breakdown),
// Fig. 4 (parallelization analysis), Fig. 5 (optimization grids), Fig. 6
// (search-space statistics), Figs. 7/10/11 (scaling with and without
// offload), and Fig. 9 (offload requirements). Each experiment is a plain
// function shared by the CLI (`calculon study …`) and the benchmark
// harness in the repository root.
package experiments

import (
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
)

// Scale selects the experiment fidelity: ScaleFull reproduces the paper's
// exact sweep sizes (minutes of CPU time for the largest studies);
// ScaleSmall runs a reduced but shape-preserving version suitable for tests
// and benchmarks.
type Scale int

const (
	// ScaleSmall runs reduced sweeps (seconds).
	ScaleSmall Scale = iota
	// ScaleFull runs the paper-sized sweeps (minutes).
	ScaleFull
)

// studyModels returns the three LLMs of the §5–§7 studies with the global
// batch used throughout (4,096 samples, §4.1).
func studyModels() []model.LLM {
	return []model.LLM{
		model.MustPreset("gpt3-175B").WithBatch(4096),
		model.MustPreset("turing-530B").WithBatch(4096),
		model.MustPreset("megatron-1T").WithBatch(4096),
	}
}

// sweepOptions is the shared search configuration of the big sweeps: the
// full non-monotone trade-off space with the always-beneficial toggles
// pinned (see execution.EnumOptions.PinBeneficial). Worker budgeting,
// lattice subtree pruning, and — for the system-size sweeps — the
// cross-size shared profile memo all come from the search defaults; the
// experiments never pin worker counts themselves.
func sweepOptions(features execution.FeatureSet, maxInterleave int) search.Options {
	return search.Options{
		Enum: execution.EnumOptions{
			Features:      features,
			MaxInterleave: maxInterleave,
			PinBeneficial: true,
		},
	}
}
