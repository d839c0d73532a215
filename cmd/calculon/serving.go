package main

import (
	"context"
	"flag"
	"fmt"

	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/tco"
)

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	c := addCommon(fs)
	tp := fs.Int("tp", 8, "tensor parallelism degree")
	pp := fs.Int("pp", 1, "pipeline parallelism degree")
	prompt := fs.Int("prompt", 512, "prompt length in tokens")
	gen := fs.Int("gen", 256, "generated tokens per sequence")
	batch := fs.Int("serve-batch", 8, "concurrent sequences")
	kvOffload := fs.Bool("kv-offload", false, "stash the KV cache in the second memory tier (-mem2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c.procs = *tp * *pp
	m, sys, err := c.resolve()
	if err != nil {
		return err
	}
	// A TP that does not divide the attention heads (or a PP that does not
	// divide the blocks) has no shardable execution; rejecting here keeps the
	// estimate honest instead of pricing a rounded-off model.
	if *tp < 1 || m.AttnHeads%*tp != 0 {
		return fmt.Errorf("infer: -tp %d does not divide %s's %d attention heads: %w",
			*tp, m.Name, m.AttnHeads, perf.ErrInfeasible)
	}
	if *pp < 1 || m.Blocks%*pp != 0 {
		return fmt.Errorf("infer: -pp %d does not divide %s's %d blocks: %w",
			*pp, m.Name, m.Blocks, perf.ErrInfeasible)
	}
	st := execution.Strategy{
		TP: *tp, PP: *pp, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeNone, TPRSAG: true,
	}
	res, err := inference.Estimate(m, sys, st, inference.Workload{
		PromptLen: *prompt, GenLen: *gen, Batch: *batch, KVOffload: *kvOffload,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s serving on %d × %s (t=%d, p=%d)\n", m.Name, c.procs, sys.Name, *tp, *pp)
	fmt.Printf("  prompt %d, generate %d, batch %d\n", *prompt, *gen, *batch)
	fmt.Printf("  prefill (time to first token): %v\n", res.PrefillTime)
	fmt.Printf("  per-token latency:             %v\n", res.StepTime)
	fmt.Printf("  throughput:                    %.1f tokens/s\n", res.TokensPerSec)
	fmt.Printf("  full response time:            %v\n", res.TotalTime)
	bound := "compute"
	if res.DecodeBandwidthBound {
		bound = "memory bandwidth"
	}
	fmt.Printf("  decode bound by:               %s\n", bound)
	fmt.Printf("  per GPU: weights %v, KV cache %v, total %v of %v\n",
		res.WeightBytes, res.KVCacheBytes, res.Mem1Used, sys.Mem1.Capacity)
	return nil
}

func cmdTCO(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("tco", flag.ExitOnError)
	c := addCommon(fs)
	rt := addRuntime(fs)
	tokens := fs.Float64("tokens", 450e9, "training tokens")
	capex := fs.Float64("capex", 25_000, "capex per GPU in dollars")
	watts := fs.Float64("watts", 500, "average power per GPU")
	kwh := fs.Float64("kwh", 0.10, "energy price per kWh in dollars")
	pin := fs.Bool("pin", true, "pin always-beneficial toggles in the search")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, sys, err := c.resolve()
	if err != nil {
		return err
	}
	s, err := rt.start(ctx)
	if err != nil {
		return err
	}
	defer s.close(&retErr)
	opts := search.Options{
		Enum: execution.EnumOptions{
			Features:      execution.FeatureAll,
			PinBeneficial: *pin,
			MaxInterleave: 4,
		},
	}
	s.train(&opts)
	res, err := search.Execution(s.ctx, m, sys, opts)
	if err != nil {
		return s.stopped("search", err)
	}
	if !res.Found() {
		return fmt.Errorf("no feasible execution for %s on %d × %s", m.Name, sys.Procs, sys.Name)
	}
	assume := tco.DefaultAssumptions()
	assume.CapexPerGPU = *capex
	assume.GPUPowerWatts = *watts
	assume.EnergyCostPerKWh = *kwh
	cost, err := tco.TrainingRun(res.Best, *tokens, assume)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %.3g tokens, best of %d feasible strategies on %d × %s:\n",
		m.Name, *tokens, res.Feasible, sys.Procs, sys.Name)
	fmt.Printf("  strategy: %v (MFU %.1f%%)\n", res.Best.Strategy, 100*res.Best.MFU)
	fmt.Printf("  %v\n", cost)
	s.servedNote()
	return nil
}
