package perf

import (
	"math"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestSegmentFloorCounts pins the segment floor on a capacity-tight sweep,
// the kind the floor is for: a megatron-1T cut to 32 blocks at batch 512,
// on 40 GiB A100s with no second tier, at 64, 128, 192 and 256 GPUs, over
// every feature with the beneficial toggles pinned and interleaving up to 4,
// as the sizes of a §5.2 sweep walk it: one after another on Runners that
// share their profile rows. The counts are machine-independent, and the
// search's counters among them — leaves (Evaluated), feasible,
// pre-screened and cache hits — are what search.SystemSize reports for the
// same sweep without the floor.
func TestSegmentFloorCounts(t *testing.T) {
	m := model.MustPreset("megatron-1T")
	m.Blocks = 32
	m = m.WithBatch(512)
	base := system.A100(256).WithMem1Capacity(40 * units.GiB)
	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}
	var runners []*Runner
	for _, n := range []int{64, 128, 192, 256} {
		r, err := group.RunnerFor(base.WithProcs(n))
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	opts := execution.EnumOptions{Features: execution.FeatureAll, PinBeneficial: true, MaxInterleave: 4}
	got := mirrorSearches(t, m, runners, opts)
	// 50,925 leaves: 25,767 in pruned subtrees (every leaf at 64 GPUs) and
	// 1,198 segments of 21. The floor shows 444 segments hold no leaf that
	// fits, counting their 9,324 leaves as profile cache hits; the memory
	// pass prices the other 754, and the class walk runs on the 68 where
	// the floor pass selects a class (90 when the bound alone chose the
	// slots the pass prices). The memory half ran 11,039 times with every
	// segment walked class by class, 7,043 times with the floor, 1,056
	// times stepping to each class of a passing slot whose bound keys pass
	// (on the 295 segments with such a slot), 490 times once per leaf of a
	// selected class, and now 370 times, the slot floor leaving fewer
	// classes to select.
	want := map[string]int{
		"leaves": 50925, "pre-screened": 25767, "feasible": 5229, "cache hits": 24006,
		"segments floored": 444, "segments walked": 68, "memory-half runs": 370,
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: got %d, want %d", k, got[k], want[k])
		}
	}
}

// TestSeqParFloorCounts pins the floor pass where sequence parallelism
// meets a tensor-parallel group that spans nodes: gpt3-175B at batch 256
// on 256 A100s, the seqpar feature set, interleaving up to 2, walked by one
// worker under a top-10 + Pareto fold (mirrorSearches). At t = 16 and 32
// the group crosses InfiniBand, whose in-network all-reduce costs about
// half an RS+AG, and a sequence-parallel class must use RS+AG
// (Strategy.Validate), so its TP floor and its profile slot's slot floor
// price RS+AG alone. With the cheaper of the two collectives the pass
// priced 409 class floors and stepped into 145 classes.
func TestSeqParFloorCounts(t *testing.T) {
	m := model.MustPreset("gpt3-175B").WithBatch(256)
	r, err := NewRunner(m, system.A100(256))
	if err != nil {
		t.Fatal(err)
	}
	opts := execution.EnumOptions{Procs: 256, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	got := mirrorSearches(t, m, []*Runner{r}, opts)
	want := map[string]int{"class floors priced": 139, "classes stepped": 136}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: got %d, want %d", k, got[k], want[k])
		}
	}
}

// TestFloorSegmentAllocatesNothing: once the segment's row holds the
// lattice's slot minima, the memory pass allocates nothing, whether the
// segment floor turns the segment away or the pass prices every class, and
// neither does the floor pass pricing every fitting class's floor.
func TestFloorSegmentAllocatesNothing(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	opts := execution.EnumOptions{Procs: 8, Features: execution.FeatureAll, HasMem2: true, MaxInterleave: 2}
	lat := LatticeFor(&opts)
	for _, c := range []struct {
		name string
		cap  units.Bytes
	}{{"fits", 80 * units.GiB}, {"floored", 12 * units.GiB}} {
		t.Run(c.name, func(t *testing.T) {
			sys := system.A100(8).WithMem1Capacity(c.cap).WithMem2(system.DDR5(512 * units.GiB))
			r, err := NewRunner(m, sys)
			if err != nil {
				t.Fatal(err)
			}
			var roots []execution.Strategy
			for _, tpd := range opts.Triples(m) {
				opts.Segments(&m, tpd, func(root *execution.Strategy) bool {
					roots = append(roots, *root)
					return true
				})
			}
			var chain RunInfo
			var p SegmentPass
			floored := 0
			for i := range roots {
				r.PassSegment(&chain, lat, &roots[i], &p)
				if fl, ok := r.mem1Floor(r.chainOf(&chain), lat, &roots[i]); ok && fl > c.cap {
					floored++
				}
			}
			if (floored > 0) != (c.name == "floored") {
				t.Fatalf("%d of %d segments floored", floored, len(roots))
			}
			below := make([]units.Bytes, lat.Slots())
			for i := range below {
				below[i] = units.Bytes(math.Inf(1))
			}
			selected := 0
			n := testing.AllocsPerRun(3, func() {
				for i := range roots {
					r.PassSegment(&chain, lat, &roots[i], &p)
					selected += r.PassFloors(&chain, &p, below, func(*Keys) bool { return true })
				}
			})
			if n != 0 {
				t.Fatalf("%d memory and floor passes on a warm chain allocated %v times per round, want 0", len(roots), n)
			}
			if selected == 0 {
				t.Fatal("the floor passes selected no class: no floor was priced")
			}
		})
	}
}

// FuzzSegmentFloor draws a scaled-down model (a preset with its heads,
// hidden size, feed-forward width and blocks divided alike, and a drawn
// batch), an A100 or H100 system of a drawn size with or without a DDR
// tier, a feature set, PinBeneficial and MaxInterleave, and one segment of
// that search, and holds the segment floor to the reference evaluator:
//   - once a walk of the segment has filled its profile slots, the floor
//     is defined and at most the first-tier total (referenceMem1) of every
//     leaf, admitted or not;
//   - at a drawn capacity at, just under or far under the floor, or the
//     system's own, a segment whose floor exceeds it has no feasible leaf
//     (referenceRun);
//   - the memory pass (PassSegment) on a fresh chain, floored or not,
//     counts what the walks count: every leaf evaluated, the pre-screened
//     and feasible leaves a leaf-by-leaf walk finds, and the cache hits a
//     class walk counts.
func FuzzSegmentFloor(f *testing.F) {
	// Scaled gpt3-175B on 16 A100s with DDR, every feature, just under the
	// floor; megatron-1T on 8 A100s, SeqPar, at half the floor; turing-530B
	// on 32 A100s, every feature pinned, no DDR (a size sweep's lattice);
	// gpt3-13B on 4 A100s, baseline, at the floor; palm-540B (its own
	// feed-forward width) on 24 H100s with DDR, every feature; megatron-22B
	// on 8 H100s with DDR, every feature pinned, at the H100's 80 GiB.
	f.Add(uint8(3), uint8(3), uint8(15), uint8(63), uint8(2), uint8(5), uint8(0), uint8(0b010), uint8(1), uint8(2))
	f.Add(uint8(6), uint8(4), uint8(7), uint8(31), uint8(1), uint8(2), uint8(1), uint8(0b000), uint8(2), uint8(0))
	f.Add(uint8(9), uint8(2), uint8(31), uint8(127), uint8(2), uint8(4), uint8(2), uint8(0b100), uint8(1), uint8(4))
	f.Add(uint8(2), uint8(0), uint8(3), uint8(15), uint8(0), uint8(1), uint8(0), uint8(0b000), uint8(0), uint8(1))
	f.Add(uint8(8), uint8(3), uint8(23), uint8(47), uint8(2), uint8(3), uint8(3), uint8(0b011), uint8(1), uint8(3))
	f.Add(uint8(7), uint8(1), uint8(7), uint8(3), uint8(2), uint8(0), uint8(0), uint8(0b111), uint8(3), uint8(0))

	models := model.PresetNames()
	features := []execution.FeatureSet{execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll}
	f.Fuzz(func(t *testing.T, mSel, scale, procsSel, batchSel, featSel, tripleSel, segSel, flags, capSel, maxIl uint8) {
		m := model.MustPreset(models[int(mSel)%len(models)])
		div := 1 << (scale % 5)
		heads := max(1, m.AttnHeads/div)
		m.Hidden = m.HeadSize() * heads
		m.AttnHeads = heads
		if m.FeedForward > 0 {
			m.FeedForward = max(1, m.FeedForward/div)
		}
		m.Blocks = max(1, m.Blocks/div)
		m.Batch = 1 + int(batchSel)%128
		procs := 1 + int(procsSel)%64

		var sys system.System
		ddr := flags&0b010 != 0
		if flags&0b001 != 0 {
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
		opts := execution.EnumOptions{
			Procs:         procs,
			Features:      features[int(featSel)%len(features)],
			HasMem2:       sys.Mem2.Present(),
			PinBeneficial: flags&0b100 != 0,
			MaxInterleave: int(maxIl) % 5,
		}
		triples := opts.Triples(m)
		if len(triples) == 0 {
			return
		}
		var roots []execution.Strategy
		opts.Segments(&m, triples[int(tripleSel)%len(triples)], func(root *execution.Strategy) bool {
			roots = append(roots, *root)
			return true
		})
		root := roots[int(segSel)%len(roots)]
		tog := opts.Toggles()
		lat := LatticeFor(&opts)

		// Walk the segment under a first tier too large to turn a leaf
		// away, so every slot the floor reads gets filled.
		group, err := NewRunnerGroup(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		roomy, err := group.RunnerFor(sys.WithMem1Capacity(units.Bytes(math.MaxFloat64)))
		if err != nil {
			t.Fatal(err)
		}
		var chain RunInfo
		leaf := root
		if _, ok := roomy.mem1Floor(roomy.chainOf(&chain), lat, &leaf); ok {
			t.Fatalf("%v: a floor before any leaf filled a slot", root)
		}
		var leaves []execution.Strategy
		tog.Walk(&leaf, func(st *execution.Strategy, mask execution.FieldMask) bool {
			roomy.RunLeaf(&chain, st, mask)
			leaves = append(leaves, *st)
			return true
		})
		fl, ok := roomy.mem1Floor(roomy.chainOf(&chain), lat, &root)
		if !ok {
			t.Fatalf("%v: no floor after the walk filled the slots", root)
		}
		for _, st := range leaves {
			if got := referenceMem1(m, sys, st); !(fl <= got) {
				t.Fatalf("%s %v: floor %v above the leaf's first-tier total %v", m.Name, st, float64(fl), float64(got))
			}
		}

		capacity := [4]units.Bytes{fl, units.Bytes(math.Nextafter(float64(fl), 0)), fl / 2, sys.Mem1.Capacity}[capSel%4]
		tight := sys.WithMem1Capacity(capacity)
		r, err := group.RunnerFor(tight)
		if err != nil {
			t.Fatal(err)
		}
		var fresh RunInfo
		var p SegmentPass
		r.PassSegment(&fresh, lat, &root, &p)
		floored := fl > capacity
		walkPre, feasible := 0, 0
		chain = RunInfo{}
		leaf = root
		tog.Walk(&leaf, func(st *execution.Strategy, mask execution.FieldMask) bool {
			if _, ok := r.RunLeaf(&chain, st, mask); ok {
				feasible++
			}
			if chain.PreScreened {
				walkPre++
			}
			if !floored {
				return true
			}
			if res, err := referenceRun(m, tight, *st); err == nil {
				t.Fatalf("%v: leaf %v of a floored segment fits: %v of %v", root, st, float64(res.Mem1.Total()), float64(capacity))
			}
			return true
		})
		classHits := 0
		chain = RunInfo{}
		leaf = root
		w := tog.Classes(&leaf)
		for more := true; more; more = w.NextClass() {
			r.RunLeaf(&chain, &leaf, w.Mask())
			if !chain.PreScreened && chain.CacheHit {
				classHits += w.Len()
			}
		}
		if p.Evaluated != tog.Len() || p.Feasible != feasible || p.PreScreened != walkPre || p.CacheHits != classHits || floored && feasible != 0 {
			t.Fatalf("%v (floor %v, capacity %v): the pass counts %d evaluated, %d feasible, %d pre-screened, %d cache hits; the walks %d, %d, %d, %d",
				root, float64(fl), float64(capacity), p.Evaluated, p.Feasible, p.PreScreened, p.CacheHits, tog.Len(), feasible, walkPre, classHits)
		}
	})
}

// referenceMem1 is the first-tier total referenceRun computes for st,
// whether or not it fits: the memory rows on a block profile built from
// the layer graph, with no memo, chain or mask.
func referenceMem1(m model.LLM, sys system.System, st execution.Strategy) units.Bytes {
	st.Normalize()
	s := evalState{e: *newEval(m, sys, st)}
	s.e.weightRows(&s.mem1, &s.mem2)
	s.e.optimizerRows(&s.mem1, &s.mem2)
	s.e.activationRows(&s.mem1, &s.mem2)
	return s.mem1.Total()
}
