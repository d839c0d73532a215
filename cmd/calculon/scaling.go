package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"calculon/internal/execution"
	"calculon/internal/report"
	"calculon/internal/search"
	"calculon/internal/system"
)

func cmdScaling(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	c := addCommon(fs)
	rt := addRuntime(fs)
	step := fs.Int("step", 64, "system-size step")
	max := fs.Int("max", 1024, "largest system size")
	tol := fs.Float64("tolerance", 0.10, "right-size efficiency tolerance")
	maxIl := fs.Int("max-interleave", 4, "cap on the interleave factor")
	asCSV := fs.Bool("csv", false, "emit the sweep as CSV instead of a chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, tmpl, err := c.resolve()
	if err != nil {
		return err
	}
	sizes := search.Sizes(*step, *max)
	if len(sizes) == 0 {
		return fmt.Errorf("scaling: empty size range (step %d, max %d)", *step, *max)
	}
	s, err := rt.start(ctx)
	if err != nil {
		return err
	}
	defer s.close(&retErr)
	opts := search.Options{
		Enum: execution.EnumOptions{
			Features:      execution.FeatureAll,
			PinBeneficial: true,
			MaxInterleave: *maxIl,
		},
	}
	s.train(&opts)
	pts, err := search.SystemSize(s.ctx, m, func(n int) system.System { return tmpl.WithProcs(n) },
		sizes, opts)
	if err != nil {
		return s.stopped("sweep", err)
	}
	snap := s.prog.Snapshot()
	fmt.Printf("swept %d sizes: evaluated %d strategies (%d pre-screened, %d subtree-pruned, %d cache hits)\n",
		len(pts), snap.Evaluated, snap.PreScreened, snap.SubtreePruned, snap.CacheHits)
	if snap.StoreHits > 0 {
		fmt.Printf("%d of %d sizes served from result store %s\n", snap.StoreHits, len(pts), rt.store)
	}
	if *asCSV {
		rows := [][]string{{"gpus", "feasible", "sample_rate", "mfu", "strategy"}}
		for _, p := range pts {
			if !p.Found {
				rows = append(rows, []string{fmt.Sprintf("%d", p.Procs), "false", "", "", ""})
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.Procs), "true",
				fmt.Sprintf("%.3f", p.Best.SampleRate),
				fmt.Sprintf("%.4f", p.Best.MFU),
				p.Best.Strategy.String(),
			})
		}
		return report.WriteCSV(os.Stdout, rows)
	}
	rel := search.Relative(pts)
	views := make([]report.ScalingPointView, len(pts))
	for i, p := range pts {
		views[i] = report.ScalingPointView{X: p.Procs, Y: rel[i]}
	}
	report.Scaling(os.Stdout, fmt.Sprintf("%s on %s — best sample rate per size (relative scaling)", m.Name, tmpl.Name), views, 40)

	if eff, ok := search.BestEfficiency(pts); ok {
		fmt.Printf("\nmost efficient size: %d GPUs (%.2f samples/s per GPU)\n",
			eff.Procs, eff.Best.SampleRate/float64(eff.Procs))
	}
	if rs, ok := search.RightSize(pts, *tol); ok {
		fmt.Printf("right-size (within %.0f%% of best efficiency): %d GPUs at %.1f samples/s with %v\n",
			100**tol, rs.Procs, rs.Best.SampleRate, rs.Best.Strategy)
	}
	return nil
}
