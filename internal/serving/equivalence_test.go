package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"calculon/internal/comm"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// randomSpec draws a serving search problem: models of several sizes,
// sometimes capacity-squeezed or offload-capable systems, 1–3 mix buckets,
// SLOs from generous to unmeetable, and random space bounds. The same
// generator feeds both equivalence proofs.
func randomSpec(rng *rand.Rand) Spec {
	models := []string{"gpt3-13B", "gpt3-6.7B", "gpt2-1.5B"}
	procChoices := []int{8, 16, 32}
	sys := system.A100(procChoices[rng.Intn(len(procChoices))])
	switch rng.Intn(3) {
	case 0:
		// Tight first tier: most engines die on the weight/KV lower bound,
		// stressing the pre-screen reject path.
		sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 4)
	case 1:
		// Second tier present: KV offload engines enter the space and the
		// mem2 bound becomes live.
		sys = sys.WithMem2(system.DDR5(512 * units.GiB))
	}
	mix := make([]Bucket, 1+rng.Intn(3))
	for i := range mix {
		mix[i] = Bucket{
			PromptLen: 64 << rng.Intn(5),
			GenLen:    16 << rng.Intn(4),
			Weight:    1 + rng.Float64()*4,
		}
	}
	return Spec{
		Model:  model.MustPreset(models[rng.Intn(len(models))]),
		System: sys,
		Workload: Workload{
			Mix: mix,
			SLO: SLO{
				TTFT: units.Seconds(0.05 * float64(uint(1)<<rng.Intn(10))),
				TPOT: units.Seconds(0.002 * float64(uint(1)<<rng.Intn(10))),
			},
		},
		Space: Space{
			Procs:        sys.Procs,
			MaxBatch:     8 << rng.Intn(3),
			MaxReplicas:  4 * rng.Intn(3), // 0 (unbounded), 4, or 8
			KVOffload:    rng.Intn(2) == 0,
			Disaggregate: rng.Intn(2) == 0,
		},
	}
}

// mustJSON is the byte-level view the CLI emits; comparing it proves not
// just equal values but identical formatted output.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerCountEquivalence is the determinism contract: the serving
// search's output must be byte-identical between one worker and many. The
// CI race job runs this with -race, so the byte-equality proof and the
// data-race proof cover the same executions.
func TestWorkerCountEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const draws = 10
	for i := 0; i < draws; i++ {
		spec := randomSpec(rng)
		one, err := Search(context.Background(), spec, Options{Workers: 1})
		if err != nil {
			t.Fatalf("draw %d: single-worker search: %v", i, err)
		}
		workers := 2 + rng.Intn(7)
		many, err := Search(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("draw %d: %d-worker search: %v", i, workers, err)
		}
		a, b := mustJSON(t, one), mustJSON(t, many)
		if !bytes.Equal(a, b) {
			t.Errorf("draw %d: output diverges between 1 and %d workers:\n%s\nvs\n%s", i, workers, a, b)
		}
	}
}

// TestPreScreenSoundness is the pre-screen's proof obligation: the
// closed-form capacity bound may only reject engines the full evaluation
// would also reject. Every engine of every draw that the screen rejects is
// priced directly and must come back infeasible, without an error that
// would have ended the search — so a search that priced it would have
// given the same frontier, Feasible and Evaluated; only the PreScreened
// diagnostic tells them apart.
func TestPreScreenSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const draws = 10
	rejected := 0
	for i := 0; i < draws; i++ {
		spec := randomSpec(rng).Normalize()
		if err := spec.Validate(); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		pbar, gbar := spec.Workload.MeanPromptLen(), spec.Workload.MeanGenLen()
		screen := newPreScreen(&spec, pbar, gbar)
		pr := newPricers(&spec)
		for _, cfg := range enumerate(spec.Model, spec.Space) {
			if screen.fits(cfg) {
				continue
			}
			rejected++
			p := evalEngine(&spec, pr, cfg, pbar, gbar, &pairPrefill{})
			if p.ok || p.err != nil {
				t.Fatalf("draw %d, engine %+v: pre-screen rejected it, but direct evaluation gives ok=%v err=%v",
					i, cfg, p.ok, p.err)
			}
		}
	}
	t.Logf("%d rejected engines priced directly", rejected)
	if rejected == 0 {
		t.Error("no draw exercised the pre-screen reject path; tighten the generator")
	}
}

// TestPreScreenFires pins the screen to a live reject path on a
// deterministic spec: a 13B model with a quartered HBM cannot hold its
// low-TP shards, so PreScreened must be non-zero.
func TestPreScreenFires(t *testing.T) {
	spec := basicSpec()
	spec.System = spec.System.WithMem1Capacity(spec.System.Mem1.Capacity / 4)
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreScreened == 0 {
		t.Fatal("expected pre-screen rejections on a capacity-limited system")
	}
	if res.PreScreened > res.Evaluated {
		t.Fatalf("pre-screened %d exceeds evaluated %d", res.PreScreened, res.Evaluated)
	}
}

// TestSweepWorkerEquivalence extends the determinism contract to the
// right-sizing sweep: the per-size results must be byte-identical however
// the worker budget is partitioned.
func TestSweepWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	spec := randomSpec(rng)
	sizes := []int{4, 8, 16}
	one, err := Sweep(context.Background(), spec, sizes, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Sweep(context.Background(), spec, sizes, Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, one), mustJSON(t, many)
	if !bytes.Equal(a, b) {
		t.Errorf("sweep output diverges across worker budgets:\n%s\nvs\n%s", a, b)
	}
}

// memCache is an in-memory Cache keyed on the result-affecting input (the
// normalized spec), the identity a persistent store derives; it counts
// lookups and hits.
type memCache struct {
	mu           sync.Mutex
	rows         map[string]Result
	lookups, hit int
}

func (c *memCache) key(spec Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (c *memCache) Lookup(spec Spec, opts Options) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	res, ok := c.rows[c.key(spec)]
	if ok {
		c.hit++
	}
	return res, ok
}

func (c *memCache) Store(spec Spec, opts Options, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rows == nil {
		c.rows = map[string]Result{}
	}
	c.rows[c.key(spec)] = res
}

// referenceSearch is the serving search as it ran before the sweep's
// bucketed fold: stage 1 at spec's own budget, then referenceCompose. It
// also reports what TestSweepMatchesSearch needs to know it covered: the
// feasible engines that fit, and the processor counts at which a split
// loop ran past the budget.
func referenceSearch(spec Spec) (Result, referenceStats, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Result{}, referenceStats{}, err
	}
	cfgs := enumerate(spec.Model, spec.Space)
	pbar, gbar := spec.Workload.MeanPromptLen(), spec.Workload.MeanGenLen()
	profiles := evalAll(context.Background(), &spec, newPricers(&spec), 1, nil, cfgs, pbar, gbar)
	var st referenceStats
	res, err := referenceCompose(&spec, cfgs, profiles, pbar, gbar, &st)
	return res, st, err
}

// referenceStats is what a reference composition ran into.
type referenceStats struct {
	// feasibleEngines counts the engines priced feasible.
	feasibleEngines int
	// cuts lists, for each split loop the budget stopped, the processor
	// count it would have needed.
	cuts []int
}

// referenceCompose is the per-budget stage 2 the search ran before the
// sweep's bucketed fold, kept as the fold's test-only oracle: for every
// engine that fits the budget spec.Space.Procs, in order, it enumerates
// the colocated replica counts and disaggregated splits at that budget,
// numbering every one, and folds the SLO-feasible ones through offer and
// paretoFront (themselves held to referenceCompact). It surfaces the
// lowest-sequence spec-level failure.
func referenceCompose(spec *Spec, cfgs []engineConfig, profiles []engineProfile, pbar, gbar int, st *referenceStats) (Result, error) {
	hourly, _ := tco.ProcHour(spec.Assumptions)
	slo := spec.Workload.SLO
	kvShip := units.Bytes(2 * 2 * spec.Model.Hidden).Times(float64(pbar)).Times(float64(spec.Model.Blocks))
	so := spec.System.ScaleOut()
	kvT := comm.Time(&so, comm.P2P, 2, kvShip)

	var out Result
	var buf []candidate
	seq := 0
	for i := range profiles {
		cfg := cfgs[i]
		engineProcs := cfg.tp * cfg.pp
		if engineProcs > spec.Space.Procs {
			continue
		}
		out.Evaluated++
		p := &profiles[i]
		if p.prescreened {
			out.PreScreened++
		}
		if p.err != nil {
			return Result{}, p.err
		}
		if !p.ok {
			continue
		}
		st.feasibleEngines++
		maxR := spec.Space.Procs / engineProcs
		if spec.Space.MaxReplicas > 0 && maxR > spec.Space.MaxReplicas {
			maxR = spec.Space.MaxReplicas
		}

		m := colocated(p, cfg, gbar)
		for r := 1; r <= maxR; r++ {
			seq++
			if !m.meets(slo) {
				continue
			}
			out.Feasible++
			buf = offer(buf, m.candidate(seq, i, r, 0, r*engineProcs, hourly))
		}

		if !spec.Space.Disaggregate {
			continue
		}
		m = disaggregated(p, kvT)
		reqRate := m.perReplica / float64(gbar)
		for rd := 1; rd <= maxR; rd++ {
			rp := int(math.Ceil(p.prefillPMean.AtRate(float64(rd) * reqRate)))
			if rp < 1 {
				rp = 1
			}
			if spec.Space.MaxReplicas > 0 && rp > spec.Space.MaxReplicas {
				break
			}
			procs := rd*engineProcs + rp*engineProcs
			if procs > spec.Space.Procs {
				st.cuts = append(st.cuts, procs)
				break
			}
			seq++
			if !m.meets(slo) {
				continue
			}
			out.Feasible++
			buf = offer(buf, m.candidate(seq, i, rd, rp, procs, hourly))
		}
	}
	if front := paretoFront(buf); len(front) > 0 {
		out.Frontier = make([]Deployment, len(front))
		for k := range front {
			c := &front[k]
			p := &profiles[c.engine]
			m := colocated(p, cfgs[c.engine], gbar)
			if c.prefill > 0 {
				m = disaggregated(p, kvT)
			}
			out.Frontier[k] = c.deployment(c.seq, cfgs[c.engine], p, &m)
		}
		out.Best = &out.Frontier[0]
	}
	return out, nil
}

// TestSweepMatchesSearch is the proof obligation of the bucketed fold:
// composed once at the largest budget, every budget's result — frontier,
// seqs, Best and every counter — must be byte for byte what the per-budget
// reference composition gives, both for the sweep and for a standalone
// Search at that budget. The draws cover KV offload, disaggregation, a
// separate prefill system and the MaxTP/MaxPP/MaxReplicas caps; the size
// lists are unsorted and repeat budgets, and include budgets below every
// feasible engine and budgets that stop a split loop short of where the
// largest budget takes it. With a store, a warm sweep and a partly warm
// one, whose stored budgets are served and the rest folded, must equal the
// cold sweep.
func TestSweepMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ctx := context.Background()
	const draws = 16
	var sawKV, sawDisagg, sawPrefill, sawCaps, sawReplicaCap, sawEmpty, sawNoEngine, sawCut, sawServed bool
	for d := 0; d < draws; d++ {
		spec := randomSpec(rng)
		if rng.Intn(2) == 0 {
			slow := system.A100(spec.System.Procs)
			slow.Compute.MatrixPeak /= units.FLOPsPerSec(2 + rng.Intn(3))
			spec.PrefillSystem = &slow
			spec.Space.Disaggregate = true
		}
		if rng.Intn(2) == 0 {
			spec.Space.MaxTP = 1 << rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			spec.Space.MaxPP = 1 << rng.Intn(4)
		}
		if rng.Intn(4) == 0 {
			// 13B's weights alone overflow 16 GiB: the smallest budgets
			// hold no feasible engine.
			spec.Model = model.MustPreset("gpt3-13B")
			spec.System = spec.System.WithMem1Capacity(16 * units.GiB)
		}
		choices := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
		sizes := make([]int, 3+rng.Intn(4))
		for i := range sizes {
			sizes[i] = choices[rng.Intn(len(choices))]
		}
		sizes = append(sizes, sizes[0]) // a repeated budget
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })

		want := make([]SizeResult, len(sizes))
		for i, n := range sizes {
			sp := spec
			sp.Space.Procs = n
			res, st, err := referenceSearch(sp)
			if err != nil {
				t.Fatalf("draw %d: reference at %d procs: %v", d, n, err)
			}
			want[i] = SizeResult{Procs: n, Result: res}
			got, err := Search(ctx, sp, Options{Workers: 1 + rng.Intn(3)})
			if err != nil {
				t.Fatalf("draw %d: search at %d procs: %v", d, n, err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, res); !bytes.Equal(g, w) {
				t.Errorf("draw %d: search at %d procs differs from the reference:\n%s\nvs\n%s", d, n, g, w)
			}
			sawEmpty = sawEmpty || (res.Evaluated > 0 && res.Feasible == 0)
			sawNoEngine = sawNoEngine || st.feasibleEngines == 0
			for _, c := range st.cuts {
				sawCut = sawCut || c <= slices.Max(sizes)
			}
		}
		wantJSON := mustJSON(t, want)
		for _, workers := range []int{1, 6} {
			got, err := Sweep(ctx, spec, sizes, Options{Workers: workers})
			if err != nil {
				t.Fatalf("draw %d: %d-worker sweep: %v", d, workers, err)
			}
			if g := mustJSON(t, got); !bytes.Equal(g, wantJSON) {
				t.Errorf("draw %d: %d-worker sweep over %v differs from the reference:\n%s\nvs\n%s",
					d, workers, sizes, g, wantJSON)
			}
		}

		// Store round trips: cold fills every budget, warm serves every
		// budget, and a store holding only some budgets serves those and
		// folds the rest.
		cache := &memCache{}
		cold, err := Sweep(ctx, spec, sizes, Options{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatalf("draw %d: cold sweep: %v", d, err)
		}
		var prog search.Progress
		warm, err := Sweep(ctx, spec, sizes, Options{Workers: 2, Cache: cache, Watch: search.Watch{Progress: &prog}})
		if err != nil {
			t.Fatalf("draw %d: warm sweep: %v", d, err)
		}
		if s := prog.Snapshot(); s.StoreHits != int64(len(sizes)) || s.Evaluated != 0 {
			t.Errorf("draw %d: warm sweep of %d budgets: %d store hits, %d evaluated", d, len(sizes), s.StoreHits, s.Evaluated)
		}
		part := &memCache{}
		if _, err := Sweep(ctx, spec, sizes[:len(sizes)/2], Options{Workers: 1, Cache: part}); err != nil {
			t.Fatalf("draw %d: partial sweep: %v", d, err)
		}
		partly, err := Sweep(ctx, spec, sizes, Options{Workers: 3, Cache: part})
		if err != nil {
			t.Fatalf("draw %d: partly warm sweep: %v", d, err)
		}
		sawServed = sawServed || part.hit > 0 && part.hit < len(sizes)
		for name, got := range map[string][]SizeResult{"cold": cold, "warm": warm, "partly warm": partly} {
			if g := mustJSON(t, got); !bytes.Equal(g, wantJSON) {
				t.Errorf("draw %d: %s sweep differs from the reference:\n%s\nvs\n%s", d, name, g, wantJSON)
			}
		}

		sawKV = sawKV || spec.Space.KVOffload
		sawDisagg = sawDisagg || spec.Space.Disaggregate
		sawPrefill = sawPrefill || spec.PrefillSystem != nil
		sawCaps = sawCaps || (spec.Space.MaxTP > 0 && spec.Space.MaxPP > 0 && spec.Space.MaxReplicas > 0)
		sawReplicaCap = sawReplicaCap || (spec.Space.Disaggregate && spec.Space.MaxReplicas > 0)
	}
	if !sawKV || !sawDisagg || !sawPrefill || !sawCaps || !sawReplicaCap || !sawEmpty || !sawNoEngine || !sawCut || !sawServed {
		t.Errorf("draws missed a case: kv %v disagg %v prefill system %v caps %v split replica cap %v "+
			"infeasible budget %v budget below every feasible engine %v split loop cut short %v store-served %v",
			sawKV, sawDisagg, sawPrefill, sawCaps, sawReplicaCap, sawEmpty, sawNoEngine, sawCut, sawServed)
	}
}

// TestSweepProgressTotals pins the sweep's live accounting to what the
// per-budget searches would report: each budget's Evaluated, PreScreened
// and Feasible counts, and their engine totals.
func TestSweepProgressTotals(t *testing.T) {
	spec := basicSpec()
	spec.Space.Disaggregate = true
	spec.System = spec.System.WithMem1Capacity(spec.System.Mem1.Capacity / 4)
	sizes := []int{16, 4, 8}
	var want search.Counts
	var total int64
	for _, n := range sizes {
		sp := spec
		sp.Space.Procs = n
		res, err := Search(context.Background(), sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want.Evaluated += res.Evaluated
		want.PreScreened += res.PreScreened
		want.Feasible += res.Feasible
		total += int64(res.Evaluated)
	}
	var prog search.Progress
	if _, err := Sweep(context.Background(), spec, sizes, Options{Watch: search.Watch{Progress: &prog}}); err != nil {
		t.Fatal(err)
	}
	s := prog.Snapshot()
	if s.Evaluated != int64(want.Evaluated) || s.PreScreened != int64(want.PreScreened) || s.Feasible != int64(want.Feasible) || s.Total != total {
		t.Errorf("sweep progress %+v, want evaluated %d pre-screened %d feasible %d total %d",
			s, want.Evaluated, want.PreScreened, want.Feasible, total)
	}
	if want.PreScreened == 0 {
		t.Error("the spec should exercise the pre-screen")
	}
}

// TestSweepErrorIsLowestIndex pins the sweep's error to the first failing
// budget in input order, with the text a standalone Search gives, however
// the work is scheduled.
func TestSweepErrorIsLowestIndex(t *testing.T) {
	spec := basicSpec()
	sp := spec
	sp.Space.Procs = 0
	_, want := Search(context.Background(), sp, Options{})
	if want == nil {
		t.Fatal("a zero budget must not validate")
	}
	for _, workers := range []int{1, 3} {
		for rep := 0; rep < 5; rep++ {
			out, err := Sweep(context.Background(), spec, []int{16, 0, -8}, Options{Workers: workers})
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("workers %d: sweep error %v, want %v", workers, err, want)
			}
			if out != nil {
				t.Fatalf("workers %d: a failed sweep returned %d points", workers, len(out))
			}
		}
	}
}

// TestSweepPreCancelled pins cancellation: a sweep whose context is
// already done returns the context's error and no points.
func TestSweepPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sizes := []int{4, 8, 16}
	out, err := Sweep(ctx, basicSpec(), sizes, Options{Workers: 2, Cache: &memCache{}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep: error %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("pre-cancelled sweep returned %d points", len(out))
	}
	// Even with every budget in the store, nothing is left to evaluate and
	// the cancellation still wins.
	warm := &memCache{}
	if _, err := Sweep(context.Background(), basicSpec(), sizes, Options{Cache: warm}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(ctx, basicSpec(), sizes, Options{Cache: warm}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled warm sweep: error %v, want context.Canceled", err)
	}
}

// TestSharedPrefillMatchesAlone pins the per-pair prefill memo and the
// search's block-profile memo: an engine priced with the estimates its
// (tp, pp) pair shares, on pricers warm from every engine before it, must
// get exactly the profile, error included, it gets when priced alone on
// fresh ones. The draws squeeze the
// first memory tier next to a second one, so batch-1 prefills fail with the
// KV cache in HBM and succeed with it offloaded — the case where sharing
// across KV placements would leak an error.
func TestSharedPrefillMatchesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const draws = 16
	sawSplit := false
	for d := 0; d < draws; d++ {
		spec := randomSpec(rng)
		if rng.Intn(2) == 0 {
			spec.System = spec.System.WithMem2(system.DDR5(512 * units.GiB)).
				WithMem1Capacity(spec.System.Mem1.Capacity / units.Bytes(1+rng.Intn(6)))
			spec.Space.KVOffload = true
			spec.Workload.Mix = append(spec.Workload.Mix, Bucket{PromptLen: 4096, GenLen: 1 << 14, Weight: 1})
		}
		if rng.Intn(2) == 0 {
			slow := system.A100(spec.System.Procs)
			slow.Compute.MatrixPeak /= 3
			spec.PrefillSystem = &slow
			spec.Space.Disaggregate = true
		}
		spec = spec.Normalize()
		cfgs := enumerate(spec.Model, spec.Space)
		pbar, gbar := spec.Workload.MeanPromptLen(), spec.Workload.MeanGenLen()
		var shared pairPrefill
		pr := newPricers(&spec)
		for i, cfg := range cfgs {
			if i > 0 && (cfg.tp != cfgs[i-1].tp || cfg.pp != cfgs[i-1].pp) {
				shared = pairPrefill{}
			}
			got := evalEngine(&spec, pr, cfg, pbar, gbar, &shared)
			want := evalEngine(&spec, newPricers(&spec), cfg, pbar, gbar, &pairPrefill{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("draw %d: engine %+v priced with its pair's estimates:\n%+v\nalone:\n%+v", d, cfg, got, want)
			}
			if cfg.kvOffload && got.ok && shared.colocated[0].err != nil {
				sawSplit = true
			}
		}
	}
	if !sawSplit {
		t.Error("no draw had a KV-offload engine survive a pair whose in-HBM prefill failed")
	}
}
