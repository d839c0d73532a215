package experiments

import (
	"context"
	"fmt"
	"io"

	"calculon/internal/cost"
	"calculon/internal/execution"
	"calculon/internal/report"
)

// Table3Budget reproduces the §7 price-aware system search: all sixteen
// HBM3 × DDR5 design permutations under a $125M budget, each swept across
// affordable system sizes with a full execution search, for the three study
// LLMs. ScaleSmall sweeps a coarse size grid near each design's cap;
// ScaleFull uses the paper's stride of 8.
func Table3Budget(ctx context.Context, scale Scale) ([]cost.Evaluation, error) {
	opts := cost.SweepOptions{
		Budget:  125e6,
		Stride:  512,
		MinFrac: 0.75,
		Search:  sweepOptions(execution.FeatureAll, 4),
	}
	if scale == ScaleFull {
		opts.Stride = 8
		opts.MinFrac = 0.5
		opts.Search = sweepOptions(execution.FeatureAll, 8)
	}
	return cost.BudgetSearch(ctx, studyModels(), cost.AllDesigns(), opts)
}

// RenderTable3 writes the price/performance table in the paper's layout:
// one row per design, with GPUs used, sample rate, and perf/$M per model.
func RenderTable3(w io.Writer, evals []cost.Evaluation) {
	rows := [][]string{{"HBM3", "DDR5", "price", "max GPUs",
		"175B GPUs", "perf", "perf/$M",
		"530B GPUs", "perf", "perf/$M",
		"1T GPUs", "perf", "perf/$M"}}
	for _, ev := range evals {
		row := []string{
			ev.Design.HBM.Capacity.String(),
			ddrLabel(ev),
			fmt.Sprintf("$%.1fk", ev.UnitPrice/1e3),
			fmt.Sprintf("%d", ev.MaxGPUs),
		}
		for _, mr := range ev.PerModel {
			if !mr.Found {
				row = append(row, "—", "—", "—")
				continue
			}
			row = append(row,
				fmt.Sprintf("%d", mr.GPUs),
				fmt.Sprintf("%.0f", mr.SampleRate),
				fmt.Sprintf("%.0f", mr.PerfPerMDollar),
			)
		}
		rows = append(rows, row)
	}
	report.Table(w, rows)
	if ev, mr, ok := cost.BestByPerf(evals, "megatron-1T"); ok {
		fmt.Fprintf(w, "\nbest 1T design: %v — %.0f samples/s on %d GPUs (%.0f perf/$M)\n",
			ev.Design, mr.SampleRate, mr.GPUs, mr.PerfPerMDollar)
	}
}

func ddrLabel(ev cost.Evaluation) string {
	if ev.Design.DDR.Capacity == 0 {
		return "0"
	}
	return ev.Design.DDR.Capacity.String()
}
