package serving

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"calculon/internal/inference"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// chatMix is a small two-bucket workload with generous SLOs: short
// interactive turns dominating, a long-document tail.
func chatMix() Workload {
	return Workload{
		Mix: []Bucket{
			{PromptLen: 512, GenLen: 128, Weight: 3},
			{PromptLen: 2048, GenLen: 256, Weight: 1},
		},
		SLO: SLO{TTFT: 30, TPOT: 1},
	}
}

func basicSpec() Spec {
	return Spec{
		Model:    model.MustPreset("gpt3-13B"),
		System:   system.A100(16),
		Workload: chatMix(),
		Space:    Space{Procs: 16, MaxBatch: 16},
	}
}

func TestServingSearchBasic(t *testing.T) {
	spec := basicSpec()
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Fatal("no engines evaluated")
	}
	if res.Feasible == 0 || len(res.Frontier) == 0 {
		t.Fatalf("expected feasible deployments under generous SLOs, got %d feasible, %d frontier",
			res.Feasible, len(res.Frontier))
	}
	if res.Best == nil || *res.Best != res.Frontier[0] {
		t.Fatal("Best must be the first frontier point")
	}
	slo := spec.Workload.SLO
	for i, d := range res.Frontier {
		if d.TTFT > slo.TTFT || d.TPOT > slo.TPOT {
			t.Errorf("frontier[%d] violates SLO: TTFT %v TPOT %v", i, d.TTFT, d.TPOT)
		}
		if d.Procs > spec.Space.Procs {
			t.Errorf("frontier[%d] exceeds the %d-proc budget with %d", i, spec.Space.Procs, d.Procs)
		}
		if d.Batch > spec.Space.MaxBatch || d.Replicas < 1 {
			t.Errorf("frontier[%d] outside the space: batch %d replicas %d", i, d.Batch, d.Replicas)
		}
		if d.CostPerMToken <= 0 || d.ClusterTokensPerSec <= 0 || d.UserTokensPerSec <= 0 {
			t.Errorf("frontier[%d] carries non-positive objectives: %+v", i, d)
		}
		if i > 0 && d.CostPerMToken < res.Frontier[i-1].CostPerMToken {
			t.Errorf("frontier not sorted by cost at %d", i)
		}
	}
	// No frontier point may weakly dominate another — the fold dedups
	// objective-equal points, so survivors are pairwise non-dominated.
	for i := range res.Frontier {
		for j := range res.Frontier {
			if i != j && dominates(&res.Frontier[i], &res.Frontier[j]) {
				t.Errorf("frontier[%d] dominates frontier[%d]", i, j)
			}
		}
	}
}

func TestImpossibleSLOFindsNothing(t *testing.T) {
	spec := basicSpec()
	spec.Workload.SLO = SLO{TTFT: 1e-9, TPOT: 1e-9}
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 0 || len(res.Frontier) != 0 || res.Best != nil {
		t.Fatalf("nothing can meet a nanosecond SLO, got %d feasible", res.Feasible)
	}
	// An empty frontier is nil, so the JSON output reads null.
	if res.Frontier != nil {
		t.Fatal("an empty frontier must be nil")
	}
	if res.Evaluated == 0 {
		t.Fatal("engines must still be evaluated")
	}
}

// TestDisaggregationWinsTightTPOT forces the disaggregated mode to be the
// only way to meet the decode-latency objective: the TPOT bound is placed
// between the pure-decode step time and the colocated step time (which
// carries chunked-prefill interference), on a single-engine space. Every
// frontier point must then be a split deployment, demonstrating the
// prefill/decode pools end to end.
func TestDisaggregationWinsTightTPOT(t *testing.T) {
	spec := basicSpec()
	spec.Space = Space{Procs: 16, MaxBatch: 4, MaxTP: 1, MaxPP: 1, Disaggregate: true}

	// Probe the enumerated engines (tp=1, pp=1, batch 1/2/4) for the
	// tightest colocated TPOT and its pure-decode counterpart.
	pbar, gbar := spec.Workload.MeanPromptLen(), spec.Workload.MeanGenLen()
	sys := spec.System.WithProcs(1)
	bestColoc, bestDecode := units.Seconds(0), units.Seconds(0)
	for _, b := range []int{1, 2, 4} {
		est, err := inference.Estimate(spec.Model, sys, strategyFor(1, 1), inference.Workload{
			PromptLen: pbar, GenLen: gbar, Batch: b,
		})
		if err != nil {
			t.Fatal(err)
		}
		coloc := est.StepTime + est.PrefillTime/units.Seconds(gbar)
		if bestColoc == 0 || coloc < bestColoc {
			bestColoc, bestDecode = coloc, est.StepTime
		}
	}
	spec.Workload.SLO.TPOT = bestDecode + (bestColoc-bestDecode)/2

	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("the disaggregated mode should meet the tight TPOT")
	}
	for i, d := range res.Frontier {
		if !d.Disaggregated {
			t.Fatalf("frontier[%d] is colocated but cannot meet TPOT %v", i, spec.Workload.SLO.TPOT)
		}
		if d.PrefillReplicas < 1 {
			t.Errorf("frontier[%d]: split deployment without a prefill pool", i)
		}
		if d.KVTransferTime <= 0 {
			t.Errorf("frontier[%d]: split deployment without a KV shipment cost", i)
		}
	}
}

// TestDisaggregationOnFrontier checks the milder default claim: with
// generous SLOs the best per-user rate is always a pure-decode (split)
// deployment, so the frontier must carry at least one.
func TestDisaggregationOnFrontier(t *testing.T) {
	spec := basicSpec()
	spec.Space.Disaggregate = true
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Frontier {
		if d.Disaggregated {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("expected a disaggregated deployment on the frontier")
	}
}

func TestKVOffloadEntersSpace(t *testing.T) {
	spec := basicSpec()
	spec.System = spec.System.WithMem2(system.DDR5(2 * units.TiB))
	spec.Space.KVOffload = true
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Search(context.Background(), basicSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2*base.Evaluated {
		t.Fatalf("KV offload should double the engine space: %d vs %d", res.Evaluated, base.Evaluated)
	}
}

// uncovered returns the first point of front that no point of wider
// weakly dominates, or nil when wider covers all of front.
func uncovered(front, wider []Deployment) *Deployment {
	for i := range front {
		covered := false
		for j := range wider {
			if dominates(&wider[j], &front[i]) {
				covered = true
				break
			}
		}
		if !covered {
			return &front[i]
		}
	}
	return nil
}

// TestSweepMonotone is metamorphic: a candidate's objectives do not depend
// on the budget, and a larger budget's candidate set contains a smaller
// one's, so feasibility cannot shrink and every frontier point at budget N
// must be weakly dominated by some frontier point at every larger budget.
func TestSweepMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	specs := []Spec{basicSpec()}
	for i := 0; i < 6; i++ {
		specs = append(specs, randomSpec(rng))
	}
	sizes := []int{4, 8, 16, 32}
	checked := 0
	for d, spec := range specs {
		out, err := Sweep(context.Background(), spec, sizes, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(sizes) {
			t.Fatalf("spec %d: got %d points for %d sizes", d, len(out), len(sizes))
		}
		for i, p := range out {
			if p.Procs != sizes[i] {
				t.Fatalf("spec %d, point %d: procs %d, want %d", d, i, p.Procs, sizes[i])
			}
			for _, q := range out[i+1:] {
				if q.Result.Feasible < p.Result.Feasible {
					t.Errorf("spec %d: feasible count shrank from %d procs to %d: %d < %d",
						d, p.Procs, q.Procs, q.Result.Feasible, p.Result.Feasible)
				}
				if u := uncovered(p.Result.Frontier, q.Result.Frontier); u != nil {
					t.Errorf("spec %d: frontier point seq %d at %d procs is dominated by nothing at %d procs: %+v",
						d, u.Seq, p.Procs, q.Procs, *u)
				}
				checked += len(p.Result.Frontier)
			}
		}
	}
	if checked == 0 {
		t.Error("no frontier point was checked against a larger budget")
	}
	t.Logf("%d frontier points checked against larger budgets", checked)
}

// TestLooserSLOMonotone is the SLO counterpart of TestSweepMonotone: the
// objectives only filter candidates, so loosening TTFT or TPOT can only add
// feasible deployments, and every frontier point under the tighter
// objectives must be weakly dominated by some point under the looser ones.
func TestLooserSLOMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sawGrowth := false
	for d := 0; d < 10; d++ {
		spec := randomSpec(rng)
		spec.Space.Procs = min(spec.Space.Procs, 16)
		tight, err := Search(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		slo := spec.Workload.SLO
		for _, l := range []struct {
			name string
			slo  SLO
		}{
			{"ttft", SLO{TTFT: 4 * slo.TTFT, TPOT: slo.TPOT}},
			{"tpot", SLO{TTFT: slo.TTFT, TPOT: 4 * slo.TPOT}},
			{"both", SLO{TTFT: units.Seconds(math.Inf(1)), TPOT: units.Seconds(math.Inf(1))}},
		} {
			name := l.name
			sp := spec
			sp.Workload.SLO = l.slo
			loose, err := Search(context.Background(), sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if loose.Evaluated != tight.Evaluated {
				t.Errorf("draw %d, looser %s: evaluated %d engines, tighter %d", d, name, loose.Evaluated, tight.Evaluated)
			}
			if loose.Feasible < tight.Feasible {
				t.Errorf("draw %d, looser %s: feasible shrank %d → %d", d, name, tight.Feasible, loose.Feasible)
			}
			sawGrowth = sawGrowth || loose.Feasible > tight.Feasible
			if u := uncovered(tight.Frontier, loose.Frontier); u != nil {
				t.Errorf("draw %d, looser %s: frontier point seq %d is dominated by nothing: %+v", d, name, u.Seq, *u)
			}
		}
	}
	if !sawGrowth {
		t.Error("no draw gained a feasible deployment from a looser SLO")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty mix", func(s *Spec) { s.Workload.Mix = nil }},
		{"zero weight", func(s *Spec) { s.Workload.Mix[0].Weight = 0 }},
		{"zero prompt", func(s *Spec) { s.Workload.Mix[0].PromptLen = 0 }},
		{"zero gen", func(s *Spec) { s.Workload.Mix[0].GenLen = 0 }},
		{"zero SLO", func(s *Spec) { s.Workload.SLO = SLO{} }},
		{"NaN TTFT", func(s *Spec) { s.Workload.SLO.TTFT = units.Seconds(math.NaN()) }},
		{"NaN TPOT", func(s *Spec) { s.Workload.SLO.TPOT = units.Seconds(math.NaN()) }},
		{"NaN weight", func(s *Spec) { s.Workload.Mix[0].Weight = math.NaN() }},
		{"infinite weight", func(s *Spec) { s.Workload.Mix[1].Weight = math.Inf(1) }},
		{"zero budget", func(s *Spec) { s.Space.Procs = 0 }},
		{"negative bound", func(s *Spec) { s.Space.MaxTP = -1 }},
		{"bad prefill system", func(s *Spec) { s.PrefillSystem = &system.System{} }},
	}
	for _, tc := range cases {
		spec := basicSpec()
		tc.mutate(&spec)
		if _, err := Search(context.Background(), spec, Options{}); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
	// An infinite bound is a valid "unbounded" objective.
	spec := basicSpec()
	spec.Workload.SLO = SLO{TTFT: units.Seconds(math.Inf(1)), TPOT: units.Seconds(math.Inf(1))}
	if res, err := Search(context.Background(), spec, Options{}); err != nil || res.Feasible == 0 {
		t.Errorf("unbounded SLOs: %d feasible, error %v", res.Feasible, err)
	}
}

func TestMeanWorkload(t *testing.T) {
	w := chatMix()
	// (3·512 + 1·2048)/4 = 896; (3·128 + 1·256)/4 = 160.
	if got := w.MeanPromptLen(); got != 896 {
		t.Errorf("mean prompt: got %d, want 896", got)
	}
	if got := w.MeanGenLen(); got != 160 {
		t.Errorf("mean gen: got %d, want 160", got)
	}
}

func TestPrefillSystemPool(t *testing.T) {
	spec := basicSpec()
	spec.Space.Disaggregate = true
	// A prefill pool on a slower system must not change the decode-side
	// estimates, only the prefill pool sizing and TTFT.
	slow := system.A100(16)
	slow.Compute.MatrixPeak /= 4
	slow.Compute.VectorPeak /= 4
	spec.PrefillSystem = &slow
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := func() (Result, error) {
		s := basicSpec()
		s.Space.Disaggregate = true
		return Search(context.Background(), s, Options{})
	}()
	if err != nil {
		t.Fatal(err)
	}
	// With a 4x slower prefill pool, some split deployment must need more
	// prefill replicas for the same decode pool than the homogeneous run.
	maxSlow, maxFast := 0, 0
	for _, d := range res.Frontier {
		if d.Disaggregated && d.PrefillReplicas > maxSlow {
			maxSlow = d.PrefillReplicas
		}
	}
	for _, d := range fast.Frontier {
		if d.Disaggregated && d.PrefillReplicas > maxFast {
			maxFast = d.PrefillReplicas
		}
	}
	if maxSlow == 0 {
		t.Fatal("no split deployments with a dedicated prefill system")
	}
	if maxSlow < maxFast {
		t.Errorf("slower prefill pool should not need fewer replicas: %d vs %d", maxSlow, maxFast)
	}
}
