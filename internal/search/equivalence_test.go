package search

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

// referenceSearch is the search tests' reference: every leaf of the
// enumeration, pruned subtrees included, evaluated in enumeration order
// through RunDetailed on one fresh Runner — no lattice prune, no delta
// chain, no worker pool — and folded by referenceFold. Its counters are
// counted leaf by leaf: PreScreened from each leaf's RunInfo, and CacheHits
// as the leaves that reached phase 2 minus their distinct block-profile
// keys, since the memo misses exactly once per key.
func referenceSearch(t *testing.T, m model.LLM, sys system.System, opts Options) Result {
	t.Helper()
	opts, err := normalizeOptions(m, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := perf.NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	// The block profile's inputs: the layers.Shard fields and the
	// recompute mode.
	type blockKey struct {
		tp, microbatch                    int
		recompute                         execution.RecomputeMode
		seqParallel, tpRedo, fused, infer bool
	}
	keys := map[blockKey]bool{}
	var items []scored
	seq, prescreened, phase2 := 0, 0, 0
	opts.Enum.Enumerate(m, func(st execution.Strategy) bool {
		res, info, err := r.RunDetailed(st)
		switch {
		case err == nil:
			items = append(items, scored{seq: seq, res: res})
		case !errors.Is(err, perf.ErrInfeasible):
			t.Fatalf("leaf %d %v: %v", seq, st, err)
		}
		if info.PreScreened {
			prescreened++
		} else {
			phase2++
			keys[blockKey{st.TP, st.Microbatch, st.Recompute, st.SeqParallel,
				st.TPRedoForSP, st.FusedLayers, st.Inference}] = true
		}
		seq++
		return true
	})
	out := referenceFold(items, opts.TopK, opts.Pareto)
	if opts.CollectRates {
		for i := range items {
			out.Rates = append(out.Rates, items[i].res.SampleRate)
		}
	}
	out.Evaluated = seq
	out.PreScreened = prescreened
	out.CacheHits = phase2 - len(keys)
	return out
}

// TestTwoPhaseEquivalence is the proof obligation of every fast path the
// search takes — the lattice subtree prune, the per-leaf pre-screen, the
// shared block-profile memo, the delta chains, and the parallel fold: over
// randomized (model, system, enumeration) draws and worker counts, the
// search must return exactly what referenceSearch does — same best
// strategy and numbers, same top-K, same Pareto front, same evaluated,
// feasible, pre-screened and cache-hit counts. The CI race job runs this
// test with -race, which also exercises the concurrent memo.
func TestTwoPhaseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []string{"gpt3-13B", "megatron-22B", "gpt2-1.5B", "chinchilla-70B"}
	features := []execution.FeatureSet{
		execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll,
	}
	procChoices := []int{8, 16, 32}
	batchChoices := []int{8, 16, 32}

	const draws = 12
	ratesChecked := 0
	for i := 0; i < draws; i++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).
			WithBatch(batchChoices[rng.Intn(len(batchChoices))])
		procs := procChoices[rng.Intn(len(procChoices))]
		sys := system.A100(procs)
		switch rng.Intn(3) {
		case 0:
			// Tight first tier: most strategies die on the weight/optimizer
			// lower bound, stressing the pre-screen reject path.
			sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 4)
		case 1:
			// Second tier present: offload toggles enter the space and the
			// mem2 bound becomes live.
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
		opts := Options{
			Enum: execution.EnumOptions{
				Features:      features[rng.Intn(len(features))],
				MaxTP:         8,
				MaxInterleave: 2,
				PinBeneficial: rng.Intn(2) == 0,
			},
			Workers: 1 + rng.Intn(4),
			TopK:    1 + rng.Intn(8),
			Pareto:  true,
			// Every third draw collects the rates, which prices every
			// feasible leaf's time terms instead of only the kept ones.
			CollectRates: i%3 == 0,
		}

		fast, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			t.Fatalf("draw %d: search: %v", i, err)
		}
		ref := referenceSearch(t, m, sys, opts)
		if fast.Evaluated != ref.Evaluated || fast.Feasible != ref.Feasible {
			t.Errorf("draw %d: counts diverge: search (%d,%d) vs reference (%d,%d)",
				i, fast.Evaluated, fast.Feasible, ref.Evaluated, ref.Feasible)
		}
		if fast.PreScreened != ref.PreScreened || fast.CacheHits != ref.CacheHits {
			t.Errorf("draw %d: counters diverge: search (pre-screened %d, cache hits %d) vs reference (%d, %d)",
				i, fast.PreScreened, fast.CacheHits, ref.PreScreened, ref.CacheHits)
		}
		if !reflect.DeepEqual(fast.Best, ref.Best) {
			t.Errorf("draw %d: best diverges:\nsearch: %+v %v\nreference: %+v %v",
				i, fast.Best.Strategy, fast.Best.BatchTime, ref.Best.Strategy, ref.Best.BatchTime)
		}
		if !reflect.DeepEqual(fast.Top, ref.Top) {
			t.Errorf("draw %d: top-%d diverges", i, opts.TopK)
		}
		if !reflect.DeepEqual(fast.Pareto, ref.Pareto) {
			t.Errorf("draw %d: Pareto front diverges (%d vs %d points)", i, len(fast.Pareto), len(ref.Pareto))
		}
		// The workers append rates in completion order; as a multiset they
		// must be the reference's, bit for bit.
		slices.Sort(fast.Rates)
		slices.Sort(ref.Rates)
		wantRates := 0
		if opts.CollectRates {
			wantRates = fast.Feasible
			ratesChecked += wantRates
		}
		if !slices.Equal(fast.Rates, ref.Rates) || len(fast.Rates) != wantRates {
			t.Errorf("draw %d: %d rates collected, reference %d, want %d", i, len(fast.Rates), len(ref.Rates), wantRates)
		}
		// Subtree-pruned leaves are pre-screened leaves that were never
		// generated, so the count is bounded by PreScreened.
		if fast.SubtreePruned > fast.PreScreened {
			t.Errorf("draw %d: %d subtree-pruned exceeds %d pre-screened",
				i, fast.SubtreePruned, fast.PreScreened)
		}
	}
	if ratesChecked == 0 {
		t.Error("no CollectRates draw found a feasible leaf: the rates went unchecked")
	}
}

// TestTwoPhaseCountersReported sanity-checks that a default search actually
// exercises both fast paths — a memo key space orders of magnitude smaller
// than the strategy space guarantees hits, and a capacity-limited system
// guarantees pre-screen rejections. Guards against silently wiring the
// counters to a dead path.
func TestTwoPhaseCountersReported(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sys := system.A100(16)
	res, err := Execution(context.Background(), m, sys, Options{
		Enum: execution.EnumOptions{Features: execution.FeatureSeqPar, MaxInterleave: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Error("expected block-profile cache hits in a default search")
	}
	// 13B parameters on 16 A100s cannot hold low-parallelism shards: the
	// weight/optimizer lower bound alone overflows 80 GiB, so the pre-screen
	// must fire.
	if res.PreScreened == 0 {
		t.Error("expected pre-screen rejections on a capacity-limited system")
	}
	if res.PreScreened > res.Evaluated-res.Feasible {
		t.Errorf("pre-screened %d exceeds infeasible %d",
			res.PreScreened, res.Evaluated-res.Feasible)
	}
}

// TestCountersAcrossWorkers is the search's evaluation accounting under
// concurrency: four workers share one Runner and count on their own, and
// the merged Result and the final Progress snapshot must both carry the
// leaf-by-leaf reference's evaluated, feasible, pre-screened and cache-hit
// counts, on a space with feasible and infeasible leaves alike.
func TestCountersAcrossWorkers(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(8)
	var prog Progress
	opts := Options{
		Enum:    execution.EnumOptions{Features: execution.FeatureAll, MaxInterleave: 2},
		Workers: 4,
		Watch:   Watch{Progress: &prog},
	}
	res, err := Execution(context.Background(), m, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSearch(t, m, sys, opts)
	got := []int{res.Evaluated, res.Feasible, res.PreScreened, res.CacheHits}
	if want := []int{ref.Evaluated, ref.Feasible, ref.PreScreened, ref.CacheHits}; !slices.Equal(got, want) {
		t.Fatalf("search counts (evaluated, feasible, pre-screened, cache hits) %v, reference %v", got, want)
	}
	snap := prog.Snapshot()
	if mirror := []int{int(snap.Evaluated), int(snap.Feasible), int(snap.PreScreened), int(snap.CacheHits)}; !slices.Equal(mirror, got) {
		t.Fatalf("progress counts %v, result %v", mirror, got)
	}
	if res.Feasible == 0 || res.Feasible == res.Evaluated {
		t.Fatalf("%d of %d leaves feasible: want both kinds", res.Feasible, res.Evaluated)
	}
}
