package experiments

import (
	"context"
	"fmt"
	"io"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/report"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Fig3Breakdown reproduces Fig. 3: GPT-3 175B on 4,096 A100s with
// (t,p,d) = (8,64,8), reporting the full time and HBM breakdown. The paper
// reports a 16.7 s batch with ~20% of the time in recomputation and
// optimizer state at 29% of the 17.4 GiB used.
func Fig3Breakdown() (perf.Result, error) {
	m := model.MustPreset("gpt3-175B").WithBatch(2048)
	sys := system.A100(4096)
	st := execution.Strategy{
		TP: 8, PP: 64, DP: 8, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeFull, TPRSAG: true,
	}
	return perf.Run(m, sys, st)
}

// StrategyRow is one row of Table 4: a named execution strategy with its
// performance and the Fig. 12 breakdown.
type StrategyRow struct {
	Name   string
	Result perf.Result
	// FromSearch marks rows discovered by the optimal-execution search
	// rather than fixed literature configurations.
	FromSearch bool
}

// Table4Strategies reproduces Table 4 / Fig. 12: the progression from the
// literature's full-recompute baseline through sequence parallelism to the
// combinations Calculon discovered (search-optimal software set, then
// search-optimal with offload memory). Megatron-1T on 4,096 A100s with a
// global batch of 3,072 (the batch that makes the paper's
// (t,p,d,m) = (8,1,512,6) offload row well-formed).
func Table4Strategies(ctx context.Context, scale Scale) ([]StrategyRow, error) {
	m := model.MustPreset("megatron-1T").WithBatch(3072)
	sys := system.A100(4096)
	var rows []StrategyRow

	// Row 1 — SOTA full recompute [29]: (8,64,8), m=1, interleave 2.
	base := execution.Strategy{
		TP: 8, PP: 64, DP: 8, Microbatch: 1, Interleave: 2, OneFOneB: true,
		Recompute: execution.RecomputeFull, TPRSAG: true, PPRSAG: true,
	}
	r, err := perf.Run(m, sys, base)
	if err != nil {
		return nil, fmt.Errorf("table4 recompute: %w", err)
	}
	rows = append(rows, StrategyRow{Name: "SOTA full recompute", Result: r})

	// Row 2 — SOTA sequence parallelism + selective recompute [20].
	sp := base
	sp.Recompute = execution.RecomputeAttn
	sp.SeqParallel, sp.TPRedoForSP = true, true
	r, err = perf.Run(m, sys, sp)
	if err != nil {
		return nil, fmt.Errorf("table4 seqpar: %w", err)
	}
	rows = append(rows, StrategyRow{Name: "SOTA seq parallelism", Result: r})

	// Rows 3 and 4 — Calculon SW optimizations: the best strategy found by
	// exhaustive search over the full Table 1 space, without and then with
	// offload memory.
	maxIl := 4
	if scale == ScaleFull {
		maxIl = 0
	}
	for _, row := range []struct {
		name, what string
		sys        system.System
	}{{"Calculon SW optim", "sw", sys}, {"Calculon SW + offload", "offload", sys.WithMem2(system.DDR5(512 * units.GiB))}} {
		res, err := search.Execution(ctx, m, row.sys, sweepOptions(execution.FeatureAll, maxIl))
		if err != nil {
			return nil, fmt.Errorf("table4 %s search: %w", row.what, err)
		}
		if !res.Found() {
			return nil, fmt.Errorf("table4 %s search found nothing", row.what)
		}
		rows = append(rows, StrategyRow{Name: row.name, Result: res.Best, FromSearch: true})
	}
	return rows, nil
}

// RenderTable4 writes the strategy-comparison table and the Fig. 12
// breakdown bars.
func RenderTable4(w io.Writer, rows []StrategyRow) {
	table := [][]string{{"strategy", "(t,p,d)", "m", "v", "batch time", "MFU", "HBM"}}
	for _, r := range rows {
		st := r.Result.Strategy
		table = append(table, []string{
			r.Name,
			fmt.Sprintf("(%d,%d,%d)", st.TP, st.PP, st.DP),
			fmt.Sprintf("%d", st.Microbatch),
			fmt.Sprintf("%d", st.Interleave),
			r.Result.BatchTime.String(),
			fmt.Sprintf("%.2f%%", 100*r.Result.MFU),
			r.Result.Mem1.Total().String(),
		})
	}
	report.Table(w, table)
	fmt.Fprintln(w)
	for _, r := range rows {
		report.StackedBar(w, r.Name+" batch time", "s", report.TimeSegments(r.Result), 40)
	}
}
