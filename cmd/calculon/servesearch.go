package main

import (
	"context"
	"flag"
	"fmt"

	"calculon/internal/config"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
	"calculon/internal/units"
)

// cmdServeSearch runs the SLO-constrained serving co-design search: it
// enumerates engine configurations and replica/disaggregation splits under a
// processor budget, keeps the deployments meeting the TTFT/TPOT objectives,
// and reports the Pareto frontier of per-user rate vs cluster throughput vs
// $/Mtoken. With -step/-max it sweeps the budget instead (right-sizing).
func cmdServeSearch(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("serve-search", flag.ExitOnError)
	c := addCommon(fs)
	rt := addRuntime(fs)
	scenario := fs.String("scenario", "", "serving scenario JSON; it replaces the model, system, workload and space flags, which may not be given with it")
	prompt := fs.Int("prompt", 512, "prompt length in tokens (single-bucket mix)")
	gen := fs.Int("gen", 256, "generated tokens per request (single-bucket mix)")
	ttft := fs.Float64("ttft", 10, "time-to-first-token SLO in seconds (worst bucket)")
	tpot := fs.Float64("tpot", 0.1, "time-per-output-token SLO in seconds")
	maxBatch := fs.Int("max-batch", 32, "largest in-flight batch per replica")
	maxTP := fs.Int("max-tp", 0, "cap on tensor parallelism (0 = model/budget bound)")
	maxPP := fs.Int("max-pp", 0, "cap on pipeline parallelism (0 = model/budget bound)")
	maxReplicas := fs.Int("max-replicas", 0, "cap on any one pool's replica count (0 = budget bound)")
	kvOffload := fs.Bool("kv-offload", false, "also enumerate engines with the KV cache in the -mem2 tier")
	disagg := fs.Bool("disaggregate", false, "also enumerate prefill/decode disaggregated pool splits")
	prefillSystem := fs.String("prefill-system", "", "system preset for the disaggregated prefill pool (empty = same as -system)")
	step := fs.Int("step", 0, "right-size: sweep processor budgets in steps of this size (0 = single search)")
	max := fs.Int("max", 0, "right-size: largest processor budget of the sweep")
	asJSON := fs.Bool("json", false, "emit the result as canonical JSON instead of the report")
	outPath := fs.String("o", "", "write JSON output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec serving.Spec
	if *scenario != "" {
		if err := checkScenario(fs, "step", "max", "json", "o"); err != nil {
			return err
		}
		sc, err := config.Load[config.ServingScenario](*scenario)
		if err != nil {
			return err
		}
		if spec, err = sc.Resolve(); err != nil {
			return err
		}
	} else {
		m, sys, err := c.resolve()
		if err != nil {
			return err
		}
		spec = serving.Spec{
			Model:  m,
			System: sys,
			Workload: serving.Workload{
				Mix: []serving.Bucket{{PromptLen: *prompt, GenLen: *gen, Weight: 1}},
				SLO: serving.SLO{TTFT: units.Seconds(*ttft), TPOT: units.Seconds(*tpot)},
			},
			Space: serving.Space{
				Procs:        c.procs,
				MaxBatch:     *maxBatch,
				MaxTP:        *maxTP,
				MaxPP:        *maxPP,
				MaxReplicas:  *maxReplicas,
				KVOffload:    *kvOffload,
				Disaggregate: *disagg,
			},
		}
		if *prefillSystem != "" {
			ps, err := system.Preset(*prefillSystem, sys.Procs)
			if err != nil {
				return fmt.Errorf("serve-search: prefill system: %w", err)
			}
			spec.PrefillSystem = &ps
		}
	}

	sizes := search.Sizes(*step, *max)
	if *step != 0 && len(sizes) == 0 {
		return fmt.Errorf("serve-search: empty size range (step %d, max %d)", *step, *max)
	}
	s, err := rt.start(ctx)
	if err != nil {
		return err
	}
	defer s.close(&retErr)
	var opts serving.Options
	s.serve(&opts)

	if *step != 0 {
		pts, err := serving.Sweep(s.ctx, spec, sizes, opts)
		if err != nil {
			return s.stopped("sweep", err)
		}
		if *asJSON {
			return writeJSONList(s.ctx, *outPath, s.rt.workers, pts)
		}
		fmt.Printf("%s serving %s, right-sizing over %d budgets:\n", spec.Model.Name, spec.System.Name, len(pts))
		for _, p := range pts {
			if p.Result.Best == nil {
				fmt.Printf("  %5d procs: no deployment meets the SLOs\n", p.Procs)
				continue
			}
			b := p.Result.Best
			fmt.Printf("  %5d procs: %d feasible, best $%.2f/Mtok  %.1f tok/s/user  %.0f tok/s cluster  %s\n",
				p.Procs, p.Result.Feasible, b.CostPerMToken, b.UserTokensPerSec, b.ClusterTokensPerSec, deploymentLabel(*b))
		}
		return nil
	}

	res, err := serving.Search(s.ctx, spec, opts)
	if err != nil {
		return s.stopped("search", err)
	}
	if *asJSON {
		return writeJSON(*outPath, res)
	}
	fmt.Printf("evaluated %d engine configurations, %d SLO-feasible deployments (%d pre-screened)\n",
		res.Evaluated, res.Feasible, res.PreScreened)
	s.servedNote()
	if res.Best == nil {
		fmt.Printf("no deployment of %s on ≤%d × %s meets TTFT %v / TPOT %v\n",
			spec.Model.Name, spec.Space.Procs, spec.System.Name, spec.Workload.SLO.TTFT, spec.Workload.SLO.TPOT)
		return nil
	}
	fmt.Println("Pareto frontier (cheapest first):")
	for _, d := range res.Frontier {
		fmt.Printf("  $%8.2f/Mtok  %7.1f tok/s/user  %10.0f tok/s cluster  TTFT %-10v %s\n",
			d.CostPerMToken, d.UserTokensPerSec, d.ClusterTokensPerSec, d.TTFT, deploymentLabel(d))
	}
	return nil
}

// deploymentLabel renders a deployment's shape compactly: parallelism,
// batch, pools, and KV placement.
func deploymentLabel(d serving.Deployment) string {
	s := fmt.Sprintf("t%d p%d b%d ×%d", d.TP, d.PP, d.Batch, d.Replicas)
	if d.Disaggregated {
		s += fmt.Sprintf("+%dpf", d.PrefillReplicas)
	}
	if d.KVOffload {
		s += " kv-offload"
	}
	return fmt.Sprintf("%s (%d procs)", s, d.Procs)
}
