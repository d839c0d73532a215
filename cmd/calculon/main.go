// Command calculon is the CLI of the Calculon reproduction: single-point
// performance estimates, exhaustive execution search, system-size scaling
// sweeps, and one-shot reproduction of every table and figure of the
// paper's evaluation.
//
// Usage:
//
//	calculon run     -model gpt3-175B -procs 4096 -tp 8 -pp 64 -dp 8 [flags]
//	calculon run     -scenario scenario.json
//	calculon search  -model gpt3-175B -batch 4096 -procs 4096 [flags]
//	calculon study   <fig3|fig4|fig5|fig6|fig7|fig9|fig10|fig11|table1|table2|table3|table4> [-full]
//	calculon presets
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/experiments"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/report"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context instead of killing the process, so
	// long sweeps shut their worker pools down cleanly and report the
	// partial progress they made. A second signal kills immediately
	// (signal.NotifyContext restores default handling after stop).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, os.Args[1], os.Args[2:]); err != nil {
		stop()
		switch {
		case err == errUnknownCommand:
			fmt.Fprintf(os.Stderr, "calculon: unknown command %q\n", os.Args[1])
			usage()
			os.Exit(2)
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "calculon: interrupted")
			os.Exit(130)
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "calculon: timed out")
			os.Exit(124)
		case errors.Is(err, perf.ErrInfeasible):
			// Structurally impossible requests (a TP that does not divide the
			// heads, a PP that does not divide the blocks) are usage errors,
			// not runtime failures.
			fmt.Fprintln(os.Stderr, "calculon:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "calculon:", err)
		os.Exit(1)
	}
}

// searchContext, when set, wraps a search command's context (see
// runtimeFlags.start). Only the exit-code tests set it, to pause a search
// in their child process.
var searchContext func(context.Context) context.Context

// errUnknownCommand marks an unrecognized subcommand for main's exit code.
var errUnknownCommand = fmt.Errorf("unknown command")

// dispatch routes one subcommand; extracted from main for testability. The
// context carries cancellation from signals (and tests); commands that run
// searches thread it through to the engines.
func dispatch(ctx context.Context, cmd string, args []string) error {
	switch cmd {
	case "run":
		return cmdRun(args)
	case "search":
		return cmdSearch(ctx, args)
	case "merge":
		return cmdMerge(args)
	case "scaling":
		return cmdScaling(ctx, args)
	case "timeline":
		return cmdTimeline(args)
	case "sensitivity":
		return cmdSensitivity(args)
	case "infer":
		return cmdInfer(args)
	case "serve-search":
		return cmdServeSearch(ctx, args)
	case "tco":
		return cmdTCO(ctx, args)
	case "study":
		return cmdStudy(ctx, args)
	case "calibrate":
		return cmdCalibrate(args)
	case "presets":
		return cmdPresets()
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		return errUnknownCommand
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  calculon run     -model <preset> -procs N -tp T -pp P -dp D [flags]   single estimate
  calculon run     -scenario file.json                                  estimate from a spec file
  calculon search  -model <preset> -procs N [flags]                     optimal execution search (§5.1)
  calculon search  ... -shard 2/3 -o part2.json                         evaluate one shard of a search
  calculon merge   part1.json part2.json part3.json                     merge shard results bit-identically
  calculon study   <experiment> [-full]                                 reproduce a paper table/figure
  calculon scaling -model <preset> -step 64 -max 1024 [flags]           size sweep + right-sizing (§5.2)
  calculon timeline -model <preset> -tp T -pp P -interleave V [flags]   render the pipeline schedule (Fig. 2)
  calculon sensitivity -model <preset> -procs N -tp T -pp P [flags]     batch-time elasticity per resource
  calculon infer   -model <preset> -tp T -pp P [flags]                  serving (prefill+decode) estimate
  calculon serve-search -model <preset> -procs N -ttft 10 -tpot 0.1     SLO-constrained serving co-design search
  calculon serve-search -scenario serving-chat.json -disaggregate       ... from a serving scenario file
  calculon serve-search ... -step 16 -max 128                           right-size the serving cluster
  calculon tco     -model <preset> -procs N -tokens 450e9 [flags]       training-run cost of the best strategy
  calculon calibrate [-lo 0.7 -hi 1.3 -steps 25]                        refit efficiency curves vs Table 2
  calculon presets                                                      list model/system presets

experiments: `+experimentNames+`

runtime flags: search, serve-search, scaling, tco and study take -timeout 5m
(abort with partial progress) and the profiling hooks -pprof localhost:6060
and -cpuprofile cpu.out; all but study also take -progress 2s (live stderr
ticker), -workers N (worker budget) and -store results.jsonl (result store).
Ctrl-C interrupts any sweep cleanly.`)
}

// experimentNames lists what `calculon study` reproduces.
const experimentNames = "fig2 fig3 fig4 fig5 fig6 fig7 fig9 fig10 fig11 table1 table2 table3 table4 seqscale"

type commonFlags struct {
	model  string
	batch  int
	system string
	procs  int
	hbm    string
	mem2   string
	mem2BW float64
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.model, "model", "gpt3-175B", "LLM preset name (see `calculon presets`)")
	fs.IntVar(&c.batch, "batch", 0, "global batch override (0 keeps the preset batch)")
	fs.StringVar(&c.system, "system", "a100-80g", "system preset name")
	fs.IntVar(&c.procs, "procs", 4096, "number of processors")
	fs.StringVar(&c.hbm, "hbm", "", "first-tier capacity override, e.g. 160GiB")
	fs.StringVar(&c.mem2, "mem2", "", "offload-tier capacity, e.g. 512GiB (empty disables)")
	fs.Float64Var(&c.mem2BW, "mem2-bw", 100e9, "offload-tier bandwidth in B/s per direction")
	return c
}

func (c *commonFlags) resolve() (model.LLM, system.System, error) {
	m, err := model.Preset(c.model)
	if err != nil {
		return m, system.System{}, err
	}
	if c.batch > 0 {
		m = m.WithBatch(c.batch)
	}
	sys, err := system.Preset(c.system, c.procs)
	if err != nil {
		return m, sys, err
	}
	if c.hbm != "" {
		cap, err := units.ParseBytes(c.hbm)
		if err != nil {
			return m, sys, err
		}
		sys = sys.WithMem1Capacity(cap)
	}
	if c.mem2 != "" {
		cap, err := units.ParseBytes(c.mem2)
		if err != nil {
			return m, sys, err
		}
		sys = sys.WithMem2(system.Memory{Capacity: cap, Bandwidth: units.BytesPerSec(c.mem2BW)})
	}
	return m, sys, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	c := addCommon(fs)
	scenario := fs.String("scenario", "", "JSON scenario file (overrides other flags)")
	tp := fs.Int("tp", 8, "tensor parallelism degree")
	pp := fs.Int("pp", 8, "pipeline parallelism degree")
	dp := fs.Int("dp", 1, "data parallelism degree")
	mb := fs.Int("microbatch", 1, "microbatch size")
	il := fs.Int("interleave", 1, "pipeline interleaving factor")
	recompute := fs.String("recompute", "full", "activation recompute: none|attn|full")
	seqpar := fs.Bool("seqpar", false, "sequence parallelism (implies TP RS+AG)")
	overlap := fs.String("tp-overlap", "none", "TP comm overlap: none|pipe|ring")
	dpOverlap := fs.Bool("dp-overlap", false, "overlap DP communication with backward")
	shard := fs.Bool("shard-optimizer", false, "shard optimizer state across DP")
	fused := fs.Bool("fused", false, "fuse element-wise layers")
	offload := fs.String("offload", "", "comma-free offload letters: w(eights) a(ctivations) o(ptimizer), e.g. wao")
	inference := fs.Bool("inference", false, "forward-only inference estimate")
	layersFlag := fs.Bool("layers", false, "print the per-layer cost profile of one block")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		m   model.LLM
		sys system.System
		st  execution.Strategy
		err error
	)
	if *scenario != "" {
		sc, err := config.Load[config.Scenario](*scenario)
		if err != nil {
			return err
		}
		m, sys, st, err = sc.Resolve()
		if err != nil {
			return err
		}
	} else {
		m, sys, err = c.resolve()
		if err != nil {
			return err
		}
		st = execution.Strategy{
			TP: *tp, PP: *pp, DP: *dp, Microbatch: *mb, Interleave: *il,
			OneFOneB:  true,
			Recompute: execution.RecomputeMode(*recompute),
			TPOverlap: execution.TPOverlapMode(*overlap),
			DPOverlap: *dpOverlap, OptimSharding: *shard, FusedLayers: *fused,
			Inference: *inference,
		}
		if *seqpar {
			st.TPRSAG, st.SeqParallel = true, true
		}
		for _, ch := range *offload {
			switch ch {
			case 'w':
				st.WeightOffload = true
			case 'a':
				st.ActOffload = true
			case 'o':
				st.OptimOffload = true
			default:
				return fmt.Errorf("bad -offload letter %q", string(ch))
			}
		}
	}
	res, err := perf.Run(m, sys, st)
	if err != nil {
		return err
	}
	report.Breakdown(os.Stdout, res)
	if *layersFlag {
		fmt.Println()
		if err := printLayers(m, sys, st); err != nil {
			return err
		}
	}
	return nil
}

func cmdSearch(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	c := addCommon(fs)
	rt := addRuntime(fs)
	features := fs.String("features", "all", "optimization family: baseline|seqpar|all")
	topK := fs.Int("topk", 10, "print the K best configurations")
	hist := fs.Bool("histogram", false, "print the Fig. 6-style sample-rate histogram")
	pareto := fs.Bool("pareto", false, "print the time-vs-memory Pareto front")
	pin := fs.Bool("pin", false, "pin always-beneficial toggles (faster, same optimum)")
	maxIl := fs.Int("max-interleave", 0, "cap the interleave factor (0 = unlimited)")
	shardFlag := fs.String("shard", "", "evaluate one shard i/n (1-based, e.g. 2/3) of the search and emit a mergeable partial result as JSON")
	asJSON := fs.Bool("json", false, "emit the result as canonical JSON instead of the report")
	outPath := fs.String("o", "", "write JSON output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, sys, err := c.resolve()
	if err != nil {
		return err
	}
	var sh search.Shard
	if *shardFlag != "" {
		if sh, err = search.ParseShard(*shardFlag); err != nil {
			return err
		}
		// Sharded runs bypass the store, which holds whole searches, and
		// emit a mergeable ShardResult instead of the human report.
		rt.store = ""
	}
	s, err := rt.start(ctx)
	if err != nil {
		return err
	}
	defer s.close(&retErr)
	opts := search.Options{
		Enum: execution.EnumOptions{
			Features:      execution.FeatureSet(*features),
			MaxInterleave: *maxIl,
			PinBeneficial: *pin,
		},
		TopK:         *topK,
		CollectRates: *hist,
		Pareto:       *pareto,
	}
	s.train(&opts)
	if *shardFlag != "" {
		sres, err := search.ExecutionShard(s.ctx, m, sys, opts, sh)
		if err != nil {
			return s.stopped("shard "+sh.String(), err)
		}
		return writeJSON(*outPath, sres)
	}
	res, err := search.Execution(s.ctx, m, sys, opts)
	if err != nil {
		return s.stopped("search", err)
	}
	if *asJSON {
		return writeJSON(*outPath, newSearchOutput(res))
	}
	fmt.Printf("evaluated %d strategies, %d feasible (%d pre-screened, %d subtree-pruned, %d cache hits)\n",
		res.Evaluated, res.Feasible, res.PreScreened, res.SubtreePruned, res.CacheHits)
	s.servedNote()
	if !res.Found() {
		fmt.Println("no feasible configuration")
		return nil
	}
	for i, r := range res.Top {
		fmt.Printf("#%d  %.1f samples/s  MFU %.2f%%  %v  mem1 %v\n",
			i+1, r.SampleRate, 100*r.MFU, r.Strategy, r.Mem1.Total())
	}
	fmt.Println()
	report.Breakdown(os.Stdout, res.Best)
	if *pareto {
		fmt.Println("\ntime-vs-memory Pareto front (fastest first):")
		for _, r := range res.Pareto {
			fmt.Printf("  %v  mem1 %v  %v\n", r.BatchTime, r.Mem1.Total(), r.Strategy)
		}
	}
	if *hist {
		h := search.NewHistogram(res.Rates, 10)
		report.HistogramChart(os.Stdout, "sample-rate distribution", h.Min, h.Max, h.Counts, 40)
		fmt.Printf("within 10%% of best: %d of %d\n",
			search.WithinFraction(res.Rates, 0.10), res.Feasible)
	}
	return nil
}

func cmdStudy(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	rt := addHooks(fs)
	full := fs.Bool("full", false, "paper-sized sweeps (minutes) instead of reduced ones")
	asJSON := fs.Bool("json", false, "emit the experiment's data as JSON instead of rendering it")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("study: the experiment name comes first (calculon study <experiment> [flags]); experiments: %s", experimentNames)
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	ctx, cleanup, err := rt.apply(ctx)
	if err != nil {
		return err
	}
	defer cleanup()
	scale := experiments.ScaleSmall
	if *full {
		scale = experiments.ScaleFull
	}
	w := os.Stdout
	switch name {
	case "table1":
		rows, err := experiments.Table1Ablation()
		return show(*asJSON, rows, err, experiments.RenderTable1)
	case "table2":
		rows, err := experiments.Table2Validation()
		return show(*asJSON, rows, err, experiments.RenderTable2)
	case "table3":
		evals, err := experiments.Table3Budget(ctx, scale)
		return show(*asJSON, evals, err, experiments.RenderTable3)
	case "table4", "fig12":
		rows, err := experiments.Table4Strategies(ctx, scale)
		return show(*asJSON, rows, err, experiments.RenderTable4)
	case "fig2":
		if err := experiments.Fig2Schedule(w); err != nil {
			return err
		}
	case "fig3":
		res, err := experiments.Fig3Breakdown()
		return show(*asJSON, res, err, report.Breakdown)
	case "fig4":
		sweeps, err := experiments.Fig4Parallelism()
		return show(*asJSON, sweeps, err, experiments.RenderFig4)
	case "fig5":
		for _, v := range experiments.Fig5Variants() {
			g, err := experiments.Fig5Optimizations(ctx, v, scale)
			if err != nil {
				return err
			}
			experiments.RenderFig5(w, g)
			fmt.Fprintln(w)
		}
	case "fig6":
		stats, err := experiments.Fig6SearchSpace(ctx, scale)
		return show(*asJSON, stats, err, experiments.RenderFig6)
	case "fig7", "fig10":
		curves, err := experiments.ScalingStudy(ctx, name == "fig10", scale)
		if err != nil {
			return err
		}
		title := "Fig. 7 — LLM training scalability (no offloading)"
		if name == "fig10" {
			title = "Fig. 10 — LLM training scalability (100 GB/s offloading)"
		}
		experiments.RenderScaling(w, title, curves)
	case "fig9":
		for _, infinite := range []bool{true, false} {
			g, err := experiments.Fig9Offload(ctx, infinite, scale)
			if err != nil {
				return err
			}
			experiments.RenderFig9(w, g)
			fmt.Fprintln(w)
		}
	case "fig11":
		base, err := experiments.ScalingStudy(ctx, false, scale)
		if err != nil {
			return err
		}
		off, err := experiments.ScalingStudy(ctx, true, scale)
		if err != nil {
			return err
		}
		sp, err := experiments.OffloadSpeedup(base, off)
		if err != nil {
			return err
		}
		experiments.RenderSpeedup(w, sp)
	case "seqscale":
		pts, err := experiments.SeqScale(ctx, scale)
		return show(*asJSON, pts, err, experiments.RenderSeqScale)
	default:
		return fmt.Errorf("study: unknown experiment %q", name)
	}
	return nil
}

// show renders a study's data on stdout, or encodes it as JSON when
// asJSON is set; a failed study shows nothing.
func show[T any](asJSON bool, v T, err error, render func(io.Writer, T)) error {
	switch {
	case err != nil:
		return err
	case asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	render(os.Stdout, v)
	return nil
}

func cmdPresets() error {
	fmt.Println("LLM presets:")
	for _, n := range model.PresetNames() {
		fmt.Printf("  %v\n", model.MustPreset(n))
	}
	fmt.Println("system presets:")
	for _, n := range system.PresetNames() {
		fmt.Printf("  %s\n", n)
	}
	return nil
}
