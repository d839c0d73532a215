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
)

// Fig6Stats carries the search-space statistics of §5.1 / Fig. 6.
type Fig6Stats struct {
	Procs     int
	Evaluated int
	Feasible  int
	Best      perf.Result
	// Histogram bins all feasible sample rates (Fig. 6a, 10 bins).
	Histogram search.Histogram
	// TopCDF is the empirical CDF of the 100 best sample rates (Fig. 6b).
	TopCDF []search.CDFPoint
	// Within10Pct counts configurations within 10% of the best — the
	// paper's "needles in a haystack" metric (30 of 1,974,902).
	Within10Pct int
	// Within5PctOfTop counts top-100 members within 5% of the best
	// ("only about ten attain performance within 5%").
	Within5PctOfTop int
}

// Fig6SearchSpace reproduces Fig. 6: enumerate the full (unpinned)
// execution-strategy space for GPT-3 175B, collect every feasible sample
// rate, and report the distribution. ScaleFull uses the paper's 4,096-GPU
// system; ScaleSmall a 512-GPU one.
func Fig6SearchSpace(ctx context.Context, scale Scale) (Fig6Stats, error) {
	// The batch scales with the system so the small study preserves the
	// full study's microbatch-count and bubble trade-offs.
	procs := 512
	if scale == ScaleFull {
		procs = 4096
	}
	m := model.MustPreset("gpt3-175B").WithBatch(procs)
	sys := system.A100(procs)
	res, err := search.Execution(ctx, m, sys, search.Options{
		Enum: execution.EnumOptions{
			Procs:    procs,
			Features: execution.FeatureAll,
			// The full combinatorial space: nothing pinned.
		},
		TopK:         100,
		CollectRates: true,
	})
	if err != nil {
		return Fig6Stats{}, err
	}
	stats := Fig6Stats{
		Procs:     procs,
		Evaluated: res.Evaluated,
		Feasible:  res.Feasible,
		Best:      res.Best,
		Histogram: search.NewHistogram(res.Rates, 10),
	}
	var topRates []float64
	for _, r := range res.Top {
		topRates = append(topRates, r.SampleRate)
	}
	stats.TopCDF = search.CDF(topRates)
	stats.Within10Pct = search.WithinFraction(res.Rates, 0.10)
	stats.Within5PctOfTop = search.WithinFraction(topRates, 0.05)
	return stats, nil
}

// RenderFig6 writes the histogram, CDF summary and haystack metrics.
func RenderFig6(w io.Writer, s Fig6Stats) {
	fmt.Fprintf(w, "GPT-3 175B on %d GPUs: %d strategies evaluated, %d feasible (%.1f%%)\n",
		s.Procs, s.Evaluated, s.Feasible, 100*float64(s.Feasible)/float64(max(s.Evaluated, 1)))
	report.HistogramChart(w, "Fig. 6a — sample-rate distribution of feasible strategies",
		s.Histogram.Min, s.Histogram.Max, s.Histogram.Counts, 40)
	fmt.Fprintf(w, "best strategy: %v at %.1f samples/s\n", s.Best.Strategy, s.Best.SampleRate)
	fmt.Fprintf(w, "within 10%% of best: %d of %d (%.4f%%)\n",
		s.Within10Pct, s.Feasible, 100*float64(s.Within10Pct)/float64(max(s.Feasible, 1)))
	fmt.Fprintf(w, "top-100 within 5%% of best: %d\n", s.Within5PctOfTop)
	if n := len(s.TopCDF); n > 0 {
		fmt.Fprintf(w, "Fig. 6b — top-100 CDF: min %.1f, median %.1f, max %.1f samples/s\n",
			s.TopCDF[0].Value, s.TopCDF[n/2].Value, s.TopCDF[n-1].Value)
	}
}
