package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"

	"calculon/internal/config"
	"calculon/internal/model"
	"calculon/internal/service"
	"calculon/internal/serving"
	"calculon/internal/system"
	"calculon/internal/units"
)

// The generators below turn a seed into a workload's inputs. A seed changes
// what the programs compute, but each generator keeps the amount of work the
// same from seed to seed — the same commands, the same stratified mix of job
// kinds and sizes — so a metric's spread across seeds measures the programs,
// not the draw.

// newRand returns the deterministic random stream named stream for seed.
// Streams are independent: a new draw in one generator never shifts
// another's inputs.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

func itoa(n int) string { return strconv.Itoa(n) }

// trainCmd is one `calculon search` invocation.
type trainCmd struct {
	Model        string
	Batch, Procs int
	Mem2         string
	TopK         int
}

func (c trainCmd) args(workers int) []string {
	a := []string{"search", "-model", c.Model, "-batch", itoa(c.Batch), "-procs", itoa(c.Procs)}
	if c.Mem2 != "" {
		a = append(a, "-mem2", c.Mem2)
	}
	return append(a, "-topk", itoa(c.TopK), "-pareto", "-json", "-workers", itoa(workers))
}

func (c trainCmd) resolve() (model.LLM, system.System, error) {
	return resolveCLI(c.Model, c.Batch, c.Procs, "", c.Mem2)
}

// genTrain draws the train-search command. Every seed runs the paper's
// headline search, GPT-3 175B at batch 3072 on 4,096 A100s with a 512 GiB
// offload tier (10,346,112 strategies): searches of other models or sizes
// differ in cost by more than the metrics' bounds, so the seed draws only
// the top-K depth, which changes the output but not the work.
func genTrain(seed int64, quick bool) trainCmd {
	r := newRand(seed, "train-search")
	c := trainCmd{Model: "gpt3-175B", Batch: 3072, Procs: 4096, Mem2: "512GiB", TopK: 5 + r.IntN(16)}
	if quick {
		c = trainCmd{Model: "gpt3-13B", Batch: 64, Procs: 64, TopK: c.TopK}
	}
	return c
}

// sweepCmd is one `calculon scaling` invocation.
type sweepCmd struct {
	Model     string
	Batch     int
	HBM       string
	Step, Max int
}

func (c sweepCmd) args(workers int) []string {
	return []string{"scaling", "-model", c.Model, "-batch", itoa(c.Batch), "-hbm", c.HBM,
		"-step", itoa(c.Step), "-max", itoa(c.Max), "-csv", "-workers", itoa(workers)}
}

func (c sweepCmd) resolve() (model.LLM, system.System, error) {
	return resolveCLI(c.Model, c.Batch, c.Max, c.HBM, "")
}

// genSweep draws one round of size-sweep commands: each of the three
// capacity-tight models of §5.2 once, in a seeded order, swept over 8..2048
// GPUs with a seeded HBM cap of 38–42 GiB. The cap moves the cliffs; a band
// this narrow keeps the sweep's cost nearly constant, where caps of 40 and
// 64 GiB differ by up to a quarter.
func genSweep(seed int64, quick bool) []sweepCmd {
	r := newRand(seed, "size-sweep")
	models := []string{"megatron-1T", "turing-530B", "palm-540B"}
	r.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	var out []sweepCmd
	for _, m := range models {
		out = append(out, sweepCmd{Model: m, Batch: 3072, HBM: fmt.Sprintf("%dGiB", 38+r.IntN(5)), Step: 8, Max: 2048})
	}
	if quick {
		return []sweepCmd{{Model: "gpt3-13B", Batch: 64, HBM: out[0].HBM, Step: 8, Max: 32}}
	}
	return out
}

// serveStep and serveMax bound the serve-sweep's processor-budget sweep.
const serveStep = 8

func serveMax(quick bool) int {
	if quick {
		return 32
	}
	return 512
}

// genScenarios draws the serve-sweep scenarios: GPT-3 175B on A100-80G with
// prefill/decode disaggregation, eight request mixes of 2, 3, 4 and 3
// buckets twice over — the bucket count sets how many estimates price each
// engine, so it is fixed per slot rather than drawn.
func genScenarios(seed int64, quick bool) []config.ServingScenario {
	r := newRand(seed, "serve-sweep")
	buckets := []int{2, 3, 4, 3, 2, 3, 4, 3}
	if quick {
		buckets = buckets[:1]
	}
	procs := serveMax(quick)
	var out []config.ServingScenario
	for i, nb := range buckets {
		out = append(out, config.ServingScenario{
			Name:     fmt.Sprintf("bench-serve-%d-%d", seed, i),
			Model:    config.ModelRef{Preset: "gpt3-175B"},
			System:   config.SystemRef{Preset: "a100-80g", Procs: procs},
			Workload: drawWorkload(r, nb),
			Space:    serving.Space{Procs: procs, MaxBatch: 32, Disaggregate: true},
		})
	}
	return out
}

// drawWorkload draws a serving request mix: prompts of 128–4096 tokens and
// generations of 32–512 (both log-uniform), weights 1–4, a TTFT objective
// of 2–10 s and a TPOT objective of 0.05–0.2 s.
func drawWorkload(r *rand.Rand, buckets int) serving.Workload {
	mix := make([]serving.Bucket, buckets)
	for i := range mix {
		mix[i] = serving.Bucket{
			PromptLen: logUniform(r, 128, 4096),
			GenLen:    logUniform(r, 32, 512),
			Weight:    float64(1 + r.IntN(4)),
		}
	}
	return serving.Workload{Mix: mix, SLO: serving.SLO{
		TTFT: units.Seconds(2 + 8*r.Float64()),
		TPOT: units.Seconds(0.05 + 0.15*r.Float64()),
	}}
}

func logUniform(r *rand.Rand, lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), r.Float64())))
}

// Job kinds of the daemon workload.
const (
	kindTrain  = "train"
	kindServe  = "serve"
	kindRepeat = "repeat"
)

// daemonJob is one request of a daemon client: a fresh spec, or a resubmit
// of an earlier fresh spec of the same client, which the result store must
// answer. Repeat indexes the repeated job in the client's list (-1 for fresh
// jobs).
type daemonJob struct {
	Kind   string
	Round  int
	Spec   service.JobSpec
	Repeat int
}

// daemonMix is the per-round composition of the daemon workload. Each round
// every (model, procs) training base runs once with one of features, in a
// seeded pairing; len(features) equals len(models)·len(procs).
type daemonMix struct {
	models     []string
	procs      []int
	features   []string
	batches    []int
	serveProcs []int
	// repeats is the number of resubmits per client per round.
	repeats int
}

// daemonClients is the number of concurrent closed-loop clients.
const daemonClients = 2

// fullMix makes a round of 36 jobs: 16 fresh training searches (44%; the
// feature set spreads them from ~5 ms to ~250 ms on one worker), 6 fresh
// serving searches (17%, ~3–15 ms) and 14 resubmits (39%, store hits).
var fullMix = daemonMix{
	models: []string{"gpt2-1.5B", "gpt3-6.7B", "gpt3-13B", "megatron-22B"},
	procs:  []int{16, 32, 64, 128},
	features: []string{
		"all", "all", "all", "all", "all", "all",
		"seqpar", "seqpar", "seqpar", "seqpar", "seqpar", "seqpar",
		"baseline", "baseline", "baseline", "baseline",
	},
	batches:    []int{32, 64, 128},
	serveProcs: []int{16, 32, 64, 128, 32, 64},
	repeats:    7,
}

var quickMix = daemonMix{
	models:     []string{"gpt3-13B", "megatron-22B"},
	procs:      []int{16},
	features:   []string{"baseline", "seqpar"},
	batches:    []int{32},
	serveProcs: []int{16, 16},
	repeats:    2,
}

// genJobs draws the daemon workload's per-client job lists for the given
// number of rounds. Fresh specs never repeat, so every fresh job misses the
// store and every resubmit hits it.
func genJobs(seed int64, rounds int, quick bool) [][]daemonJob {
	r := newRand(seed, "daemon-mixed")
	mix := fullMix
	if quick {
		mix = quickMix
	}
	clients := make([][]daemonJob, daemonClients)
	seen := map[string]bool{}
	// unseen reports whether spec is new to this job list, and records it.
	unseen := func(spec service.JobSpec) bool {
		key, _ := json.Marshal(spec) // a JobSpec always encodes
		if seen[string(key)] {
			return false
		}
		seen[string(key)] = true
		return true
	}
	type base struct {
		model string
		procs int
	}
	var bases []base
	for _, m := range mix.models {
		for _, p := range mix.procs {
			bases = append(bases, base{m, p})
		}
	}
	for round := range rounds {
		var fresh [daemonClients][]daemonJob
		r.Shuffle(len(bases), func(i, j int) { bases[i], bases[j] = bases[j], bases[i] })
		features := append([]string(nil), mix.features...)
		r.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
		for i, b := range bases {
			spec := service.JobSpec{
				Model:  config.ModelRef{Preset: b.model, Batch: mix.batches[r.IntN(len(mix.batches))]},
				System: config.SystemRef{Preset: "a100-80g", Procs: b.procs},
				Search: service.SearchSpec{Features: features[i], MaxInterleave: 2, TopK: 1 + r.IntN(5), Pareto: true},
			}
			// A base drawn again with the same batch and features in a
			// later round gets a deeper top-K, which makes it a new search.
			for !unseen(spec) {
				spec.Search.TopK++
			}
			fresh[i%daemonClients] = append(fresh[i%daemonClients], daemonJob{Kind: kindTrain, Round: round, Spec: spec, Repeat: -1})
		}
		serveProcs := append([]int(nil), mix.serveProcs...)
		r.Shuffle(len(serveProcs), func(i, j int) { serveProcs[i], serveProcs[j] = serveProcs[j], serveProcs[i] })
		for i, p := range serveProcs {
			var spec service.JobSpec
			for {
				spec = service.JobSpec{
					Model:  config.ModelRef{Preset: "gpt3-175B"},
					System: config.SystemRef{Preset: "a100-80g", Procs: p},
					Serving: &service.ServingJobSpec{
						Workload: drawWorkload(r, 1+r.IntN(3)),
						Space:    serving.Space{Procs: p, Disaggregate: true},
					},
				}
				if unseen(spec) {
					break
				}
			}
			fresh[i%daemonClients] = append(fresh[i%daemonClients], daemonJob{Kind: kindServe, Round: round, Spec: spec, Repeat: -1})
		}
		for c := range clients {
			clients[c] = appendRound(r, clients[c], fresh[c], mix.repeats, round)
		}
	}
	return clients
}

// appendRound shuffles one round's fresh jobs of a client, interleaves its
// resubmits at seeded positions, and appends the round to the client's list.
// A resubmit repeats a uniformly drawn earlier fresh job of the same client,
// which has finished by then because the client is a closed loop.
func appendRound(r *rand.Rand, list, fresh []daemonJob, repeats, round int) []daemonJob {
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	slots := make([]bool, len(fresh)+repeats) // true marks a resubmit
	for i := range repeats {
		slots[i] = true
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	if len(list) == 0 {
		// The first job of a client has nothing to repeat.
		for i, isRepeat := range slots {
			if !isRepeat {
				slots[0], slots[i] = slots[i], slots[0]
				break
			}
		}
	}
	var earlier []int
	for i, j := range list {
		if j.Repeat < 0 {
			earlier = append(earlier, i)
		}
	}
	next := 0
	for _, isRepeat := range slots {
		if isRepeat {
			k := earlier[r.IntN(len(earlier))]
			list = append(list, daemonJob{Kind: kindRepeat, Round: round, Spec: list[k].Spec, Repeat: k})
			continue
		}
		earlier = append(earlier, len(list))
		list = append(list, fresh[next])
		next++
	}
	return list
}

// resolveCLI resolves a model and system the way the calculon CLI's common
// flags do: an A100-80G preset, an optional first-tier capacity override and
// an optional offload tier at the CLI's default 100 GB/s.
func resolveCLI(name string, batch, procs int, hbm, mem2 string) (model.LLM, system.System, error) {
	m, err := model.Preset(name)
	if err != nil {
		return m, system.System{}, err
	}
	m = m.WithBatch(batch)
	sys, err := system.Preset("a100-80g", procs)
	if err != nil {
		return m, sys, err
	}
	if hbm != "" {
		c, err := units.ParseBytes(hbm)
		if err != nil {
			return m, sys, err
		}
		sys = sys.WithMem1Capacity(c)
	}
	if mem2 != "" {
		c, err := units.ParseBytes(mem2)
		if err != nil {
			return m, sys, err
		}
		sys = sys.WithMem2(system.Memory{Capacity: c, Bandwidth: 100e9})
	}
	return m, sys, nil
}
