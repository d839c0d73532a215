package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

// maxFuzzShards bounds how many shard partials one fuzz input may decode
// into; a merge's cost grows with it, and the interesting inputs are small
// shard sets.
const maxFuzzShards = 8

// FuzzMergeShards throws arbitrary bytes at `calculon merge`: the input is
// a stream of JSON values, each decoded into a ShardResult exactly as the
// CLI decodes a shard file (unknown fields rejected), and the decoded
// partials go to MergeResults together. Shard partials come from other
// machines, so every input must come back as a merged result or an error —
// never a panic or a hang — and a merged result must honor the top-K bound.
// The corpus is seeded with the three partials of a small 3-way sharded
// search, alone and as the complete set (also with a negative top-K). The
// search keeps only its best result, so each partial is about 1.3 KB of
// compact JSON: the fuzzer minimizes every new input it finds, at a cost
// quadratic in its length, and seeds of tens of KB keep it minimizing for
// the whole run. Top-K and the front are a mutated "top_k" or "pareto"
// away.
func FuzzMergeShards(f *testing.F) {
	m := model.MustPreset("gpt2-1.5B").WithBatch(8)
	sys := system.A100(4)
	opts := Options{
		Enum: execution.EnumOptions{Features: execution.FeatureBaseline, PinBeneficial: true},
	}
	var all []byte
	for i := 0; i < 3; i++ {
		sr, err := ExecutionShard(context.Background(), m, sys, opts, Shard{Index: i, Count: 3})
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(sr)
		if err != nil {
			f.Fatal(err)
		}
		data = append(data, '\n')
		f.Add(data)
		all = append(all, data...)
	}
	f.Add(all)
	// A negative top-K once panicked the fold.
	neg := bytes.ReplaceAll(all, []byte(`"top_k":0`), []byte(`"top_k":-1`))
	if bytes.Equal(neg, all) {
		f.Fatal("the seed partials carry no top_k to negate")
	}
	f.Add(neg)

	f.Fuzz(func(t *testing.T, data []byte) {
		var shards []ShardResult
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		for len(shards) < maxFuzzShards {
			var sr ShardResult
			err := dec.Decode(&sr)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return // the CLI refuses the file: "not a shard result"
			}
			shards = append(shards, sr)
		}
		res, err := MergeResults(shards)
		if err != nil {
			return
		}
		if k := shards[0].TopK; len(res.Top) > k {
			t.Fatalf("merged top-%d holds %d results", k, len(res.Top))
		}
	})
}

// maxFuzzLeaves bounds the space FuzzSearch searches: referenceSearch
// evaluates every leaf from scratch, so bigger draws are skipped.
const maxFuzzLeaves = 20000

// FuzzSearch holds the execution search, every pruning layer included — the
// lattice prune, the segment floor, the memory pass and its slot and class
// tests, the class floor and the fold — to referenceSearch, which evaluates
// every leaf from scratch and folds them by brute force. It draws a small
// model (a preset with its heads, hidden size, feed-forward width and
// blocks divided alike, and a small batch), an A100 or H100 system with or
// without a DDR tier, a first-tier capacity (the system's, an eighth or a
// thirty-second of it, or exactly the first-tier total of a drawn leaf,
// where a capacity compare turns on its equality), a feature set, PinBeneficial,
// MaxInterleave, a pinned degree, a top-K of 0–12, Pareto, CollectRates,
// 1–3 workers and a shard split. The search must return the reference's
// Best, Top, Pareto and counters bit for bit, and its rates as a multiset,
// at the drawn worker count and, when that is above one, at one worker too;
// the shards, merged, must return the same but for CacheHits, which each
// shard's own memo warms.
func FuzzSearch(f *testing.F) {
	// Each seed is (model, scale, procs, batch, features, flags, max
	// interleave, pin, top-K, workers, shards, capacity, leaf); flags are
	// H100, DDR, PinBeneficial, Pareto and CollectRates in bits 0-4. They
	// were drawn at random and kept for holding feasible and infeasible
	// leaves and a Pareto front of at least four points; among them are
	// every feature set, both systems, DDR, pinned degrees, exact-leaf
	// and tight capacities, and one to three workers and four shards.
	f.Add(uint8(212), uint8(52), uint8(180), uint8(175), uint8(239), uint8(159), uint8(145), uint8(94), uint8(27), uint8(141), uint8(245), uint8(67), uint16(55332))
	f.Add(uint8(150), uint8(195), uint8(135), uint8(31), uint8(137), uint8(79), uint8(169), uint8(68), uint8(228), uint8(241), uint8(111), uint8(169), uint16(63910))
	f.Add(uint8(60), uint8(99), uint8(231), uint8(209), uint8(32), uint8(30), uint8(133), uint8(249), uint8(64), uint8(152), uint8(232), uint8(159), uint16(13105))
	f.Add(uint8(95), uint8(141), uint8(175), uint8(219), uint8(221), uint8(110), uint8(169), uint8(210), uint8(118), uint8(75), uint8(127), uint8(74), uint16(28632))
	f.Add(uint8(110), uint8(231), uint8(14), uint8(202), uint8(2), uint8(78), uint8(202), uint8(70), uint8(103), uint8(52), uint8(110), uint8(123), uint16(48438))
	f.Add(uint8(114), uint8(136), uint8(51), uint8(251), uint8(200), uint8(47), uint8(93), uint8(158), uint8(32), uint8(211), uint8(243), uint8(139), uint16(45213))
	f.Add(uint8(219), uint8(60), uint8(223), uint8(97), uint8(236), uint8(206), uint8(48), uint8(240), uint8(11), uint8(78), uint8(71), uint8(151), uint16(17446))
	f.Add(uint8(83), uint8(111), uint8(26), uint8(49), uint8(131), uint8(30), uint8(144), uint8(255), uint8(93), uint8(153), uint8(248), uint8(241), uint16(1716))
	f.Add(uint8(157), uint8(177), uint8(75), uint8(235), uint8(220), uint8(159), uint8(107), uint8(112), uint8(227), uint8(119), uint8(50), uint8(66), uint16(6830))
	f.Add(uint8(186), uint8(31), uint8(160), uint8(135), uint8(239), uint8(238), uint8(229), uint8(1), uint8(127), uint8(70), uint8(102), uint8(5), uint16(41342))
	f.Add(uint8(169), uint8(40), uint8(231), uint8(205), uint8(186), uint8(234), uint8(201), uint8(191), uint8(37), uint8(0), uint8(152), uint8(73), uint16(19269))
	f.Add(uint8(217), uint8(15), uint8(88), uint8(87), uint8(36), uint8(207), uint8(238), uint8(126), uint8(17), uint8(72), uint8(50), uint8(101), uint16(1911))
	// Fuzzing found these two against a class floor without floorMargin and
	// against a floor whose data-parallel row ignores optimizer sharding:
	// each wrongly drops a class the fold keeps.
	f.Add(uint8(165), uint8(132), uint8(4), uint8(253), uint8(200), uint8(47), uint8(122), uint8(239), uint8(43), uint8(211), uint8(255), uint8(251), uint16(45197))
	f.Add(uint8(55), uint8(231), uint8(24), uint8(104), uint8(74), uint8(201), uint8(249), uint8(38), uint8(94), uint8(82), uint8(48), uint8(116), uint16(48593))
	// The class floor without floorMargin fails this draw (three workers)
	// at one worker too, so its one-worker rerun catches that defect on
	// every run; the first of the two above catches it only when its two
	// workers happen to claim the chunks one way.
	f.Add(uint8(124), uint8(10), uint8(2), uint8(253), uint8(200), uint8(47), uint8(122), uint8(239), uint8(115), uint8(113), uint8(248), uint8(167), uint16(45197))

	f.Fuzz(func(t *testing.T, mSel, scale, procsSel, batchSel, featSel, flags, maxIl, pin, topK, workers, shards, capSel uint8, leafSel uint16) {
		m, sys, opts, ok := drawSearch(t, mSel, scale, procsSel, batchSel, featSel, flags, maxIl, pin, topK, workers, capSel, leafSel)
		if !ok {
			return
		}
		got, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceSearch(t, m, sys, opts)
		slices.Sort(ref.Rates)
		whole := got
		checkAgainstReference(t, got, ref, opts.Workers)
		if opts.Workers > 1 {
			// Which classes a worker's fold tests depends on the chunks it
			// claims, so a fold-dependent defect shows at more than one
			// worker only some of the time; at one it shows on every run.
			one := opts
			one.Workers = 1
			got, err := Execution(context.Background(), m, sys, one)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, got, ref, 1)
		}

		n := 1 + int(shards)%4
		parts := make([]ShardResult, n)
		opts.CollectRates = false
		for i := range parts {
			if parts[i], err = ExecutionShard(context.Background(), m, sys, opts, Shard{Index: i, Count: n}); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergeResults(parts)
		if err != nil {
			t.Fatal(err)
		}
		merged.CacheHits, whole.CacheHits, whole.Rates = 0, 0, nil
		if !reflect.DeepEqual(merged, whole) {
			t.Fatalf("%d shards merged (evaluated %d, feasible %d, best %v) differ from the whole search (%d, %d, %v)",
				n, merged.Evaluated, merged.Feasible, merged.Best, whole.Evaluated, whole.Feasible, whole.Best)
		}
	})
}

// checkAgainstReference fails t unless a search at the given worker count
// returned ref (whose rates are sorted) bit for bit, its rates as a
// multiset and its SubtreePruned aside: the reference prunes no subtree.
func checkAgainstReference(t *testing.T, got, ref Result, workers int) {
	t.Helper()
	slices.Sort(got.Rates)
	got.SubtreePruned = 0
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("search at %d workers (evaluated %d, feasible %d, pre-screened %d, cache hits %d, %d top, %d front, %d rates) differs from the reference (%d, %d, %d, %d, %d, %d, %d)\nbest %v\nwant %v",
			workers, got.Evaluated, got.Feasible, got.PreScreened, got.CacheHits, len(got.Top), len(got.Pareto), len(got.Rates),
			ref.Evaluated, ref.Feasible, ref.PreScreened, ref.CacheHits, len(ref.Top), len(ref.Pareto), len(ref.Rates), got.Best, ref.Best)
	}
}

// drawSearch decodes one FuzzSearch input into a search, or reports false
// when the model is invalid or the space is empty or larger than
// maxFuzzLeaves.
func drawSearch(t *testing.T, mSel, scale, procsSel, batchSel, featSel, flags, maxIl, pin, topK, workers, capSel uint8, leafSel uint16) (model.LLM, system.System, Options, bool) {
	models := model.PresetNames()
	features := []execution.FeatureSet{execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll}
	m := model.MustPreset(models[int(mSel)%len(models)])
	div := 4 << (scale % 3)
	heads := max(1, m.AttnHeads/div)
	m.Hidden = m.HeadSize() * heads
	m.AttnHeads = heads
	if m.FeedForward > 0 {
		m.FeedForward = max(1, m.FeedForward/div)
	}
	m.Blocks = max(1, m.Blocks/div)
	m.Batch = 1 + int(batchSel)%32
	procs := 1 + int(procsSel)%16

	var sys system.System
	ddr := flags&0b10 != 0
	if flags&0b1 != 0 {
		var ddrCap units.Bytes
		if ddr {
			ddrCap = 256 * units.GiB
		}
		sys = system.H100(procs, 80*units.GiB, ddrCap)
	} else {
		sys = system.A100(procs)
		if ddr {
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
	}
	opts := Options{
		Enum: execution.EnumOptions{
			Procs:         procs,
			Features:      features[int(featSel)%len(features)],
			HasMem2:       sys.Mem2.Present(),
			PinBeneficial: flags&0b100 != 0,
			MaxInterleave: int(maxIl) % 5,
		},
		TopK:         int(topK) % 13,
		Pareto:       flags&0b1000 != 0,
		CollectRates: flags&0b10000 != 0,
		Workers:      1 + int(workers)%3,
	}
	if pin %= 7; pin > 0 {
		deg := 1 + int(pin-1)%2
		switch (pin - 1) / 2 {
		case 0:
			opts.Enum.FixedTP = deg
		case 1:
			opts.Enum.FixedPP = deg
		default:
			opts.Enum.FixedDP = deg
		}
	}
	if m.Validate() != nil {
		return m, sys, opts, false
	}
	space := opts.Enum.SpaceSize(m)
	if space == 0 || space > maxFuzzLeaves {
		return m, sys, opts, false
	}
	switch capSel % 4 {
	case 1:
		sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 8)
	case 2:
		sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 32)
	case 3:
		sys = sys.WithMem1Capacity(leafMem1(t, m, sys, opts.Enum, int(leafSel)%space))
	}
	return m, sys, opts, true
}

// leafMem1 returns the first-tier total of the first leaf from the i-th of
// the space that fits a first tier of any size, or the system's capacity
// when none does: a capacity at which that leaf fits exactly.
func leafMem1(t *testing.T, m model.LLM, sys system.System, enum execution.EnumOptions, i int) units.Bytes {
	t.Helper()
	roomy, err := perf.NewRunner(m, sys.WithMem1Capacity(units.Bytes(math.MaxFloat64)))
	if err != nil {
		t.Fatal(err)
	}
	capacity, seq := sys.Mem1.Capacity, 0
	enum.Enumerate(m, func(st execution.Strategy) bool {
		seq++
		if seq <= i {
			return true
		}
		res, err := roomy.Run(st)
		if err != nil {
			return true
		}
		capacity = res.Mem1.Total()
		return false
	})
	return capacity
}
