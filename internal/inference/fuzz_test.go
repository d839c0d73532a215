package inference

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

// FuzzEstimate holds the serving model to its invariants over arbitrary
// inputs: a model preset, tensor and pipeline degrees drawn from the
// divisors the serving search enumerates (heads and blocks), and raw prompt,
// generation and batch sizes with KV offload on or off (a second memory tier
// comes with it). Estimate must never panic. A success must carry finite,
// positive times and throughput, a TotalTime that is exactly prefill plus
// GenLen decode steps, finite non-negative memory rows, and first-tier usage
// within capacity; a failure must be infeasibility (perf.ErrInfeasible) or
// the workload's own validation error. A Pricer warmed first by another TP
// at the same prompt length, by another batch at the same TP, and by
// another prompt length (warm picks them) must then answer exactly as the
// one-shot Estimate: the same Result, bit for bit, or the same error.
func FuzzEstimate(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), 512, 128, 4, false, uint8(0))
	f.Add(uint8(3), uint8(2), uint8(1), 2048, 256, 32, true, uint8(5))
	f.Add(uint8(5), uint8(0), uint8(0), 1, 0, 1, false, uint8(1))
	f.Add(uint8(1), uint8(7), uint8(4), 32768, 4096, 256, true, uint8(200))
	f.Add(uint8(2), uint8(1), uint8(2), 0, -1, 0, false, uint8(3))
	// A generation length whose KV bytes overflowed int arithmetic once
	// came back as a negative cache that "fit".
	f.Add(uint8(2), uint8(4), uint8(0), 1, 450359962737056, 1, false, uint8(0))
	f.Add(uint8(2), uint8(4), uint8(0), 1, math.MaxInt-100, 1, false, uint8(9))

	names := model.PresetNames()
	f.Fuzz(func(t *testing.T, preset, tpSel, ppSel uint8, prompt, gen, batch int, kvOffload bool, warm uint8) {
		m := model.MustPreset(names[int(preset)%len(names)])
		tps, pps := divisors(m.AttnHeads), divisors(m.Blocks)
		tp, pp := tps[int(tpSel)%len(tps)], pps[int(ppSel)%len(pps)]
		sys := system.A100(tp * pp)
		if kvOffload {
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
		w := Workload{PromptLen: prompt, GenLen: gen, Batch: batch, KVOffload: kvOffload}

		res, err := Estimate(m, sys, serving(tp, pp), w)

		p := NewPricer(m, sys)
		otherTP := tps[(int(tpSel)+1+int(warm))%len(tps)]
		otherBatch := 1 + int(warm)%64
		otherPrompt := 1 + int(warm)*37
		p.Estimate(otherTP*pp, serving(otherTP, pp), Workload{PromptLen: prompt, GenLen: gen, Batch: otherBatch, KVOffload: kvOffload})
		p.Estimate(tp*pp, serving(tp, pp), Workload{PromptLen: prompt, GenLen: gen, Batch: otherBatch, KVOffload: kvOffload})
		p.Estimate(tp*pp, serving(tp, pp), Workload{PromptLen: otherPrompt, GenLen: gen, Batch: batch})
		warmRes, warmErr := p.Estimate(sys.Procs, serving(tp, pp), w)
		if warmRes != res || fmt.Sprint(warmErr) != fmt.Sprint(err) {
			t.Fatalf("%s t%d p%d %+v: warm pricer gives %+v (%v), Estimate %+v (%v)", m.Name, tp, pp, w, warmRes, warmErr, res, err)
		}

		if err != nil {
			if errors.Is(err, perf.ErrInfeasible) {
				return
			}
			if verr := w.Validate(); verr != nil && verr.Error() == err.Error() {
				return
			}
			t.Fatalf("%s t%d p%d %+v: error is neither infeasibility nor validation: %v", m.Name, tp, pp, w, err)
		}
		for name, v := range map[string]float64{
			"PrefillTime":  float64(res.PrefillTime),
			"StepTime":     float64(res.StepTime),
			"TotalTime":    float64(res.TotalTime),
			"TokensPerSec": res.TokensPerSec,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("%s t%d p%d %+v: %s = %v, want finite and positive", m.Name, tp, pp, w, name, v)
			}
		}
		if want := res.PrefillTime + res.StepTime.Times(float64(w.GenLen)); res.TotalTime != want {
			t.Fatalf("%s t%d p%d %+v: TotalTime %v, want prefill + GenLen steps = %v", m.Name, tp, pp, w, res.TotalTime, want)
		}
		for name, v := range map[string]units.Bytes{
			"KVCacheBytes": res.KVCacheBytes,
			"WeightBytes":  res.WeightBytes,
			"Mem1Used":     res.Mem1Used,
		} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v < 0 {
				t.Fatalf("%s t%d p%d %+v: %s = %v, want finite and non-negative", m.Name, tp, pp, w, name, v)
			}
		}
		if res.Mem1Used > sys.Mem1.Capacity {
			t.Fatalf("%s t%d p%d %+v: uses %v of %v first-tier memory", m.Name, tp, pp, w, res.Mem1Used, sys.Mem1.Capacity)
		}
	})
}

// divisors returns the positive divisors of n in ascending order.
func divisors(n int) []int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}
