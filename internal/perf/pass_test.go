package perf

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestSegmentLatticeMatchesWalk reads each of the twelve lattices (feature
// set × second tier × PinBeneficial) back off Walk's leaves grouped by
// class (walkClasses): LatticeFor builds each once; every class of a
// segment belongs to one of the lattice's profile slots and screen
// combinations, holds its slot's leaf count, and each (slot, screen) pair is one class; the classes cover the
// segment; and each screen combination's row indices name rows whose
// inputs are that combination's own switches.
func TestSegmentLatticeMatchesWalk(t *testing.T) {
	for _, f := range []execution.FeatureSet{execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll} {
		for _, mem2 := range []bool{false, true} {
			for _, pin := range []bool{false, true} {
				o := execution.EnumOptions{Features: f, HasMem2: mem2, PinBeneficial: pin}
				name := fmt.Sprintf("%s/mem2=%v/pin=%v", f, mem2, pin)
				lat := LatticeFor(&o)
				if LatticeFor(&o) != lat {
					t.Fatalf("%s: LatticeFor built the lattice twice", name)
				}
				tog := o.Toggles()
				root := execution.Strategy{TP: 2, PP: 2, DP: 2, Microbatch: 1, Interleave: 1, OneFOneB: true}
				seen := map[[2]uint32]bool{}
				leaves := 0
				walkClasses(&tog, root, func(class []execution.Strategy) {
					st := &class[0]
					i := lat.slotOf[slotFor(st)]
					b := screenBits(st)
					if i < 0 || lat.slots[i].leaves != len(class) {
						t.Fatalf("%s: class %v in slot %d of %d leaves", name, *st, i, len(class))
					}
					key := [2]uint32{uint32(i), b}
					if seen[key] {
						t.Fatalf("%s: two classes in slot %d with screen bits %b", name, i, b)
					}
					seen[key] = true
					leaves += len(class)
				})
				if len(seen) != lat.Slots()*len(lat.screens) || leaves != lat.len || lat.perScreen*len(lat.screens) != lat.len {
					t.Fatalf("%s: %d classes of %d leaves; the lattice has %d slots × %d screens, %d leaves, %d per screen",
						name, len(seen), leaves, lat.Slots(), len(lat.screens), lat.len, lat.perScreen)
				}
				for _, b := range lat.screens {
					if lat.weightRows[lat.weightOf[b]] != b&weightScreenBits || lat.optimRows[lat.optimOf[b]] != b&optimScreenBits ||
						lat.actRows[lat.actOf[b]] != b&actScreenBits || lat.dataRows[lat.dataOf[b]] != b&dataScreenBits ||
						lat.xferRows[lat.xferOf[b]] != b&xferScreenBits {
						t.Fatalf("%s: screen bits %b point at rows of other switches", name, b)
					}
				}
			}
		}
	}
}

// TestPassMatchesClassWalk holds the memory pass to the class-by-class walk
// it replaced, on the chain-equivalence configurations and a capacity-tight
// one that the segment floor cuts: for each segment (up to 4,096 leaves per
// triple), PassSegment on one Runner and a scratch evaluation of the first
// leaf of every class (walkClasses) on another must agree
// on every class's verdict (pre-screened, fits or not), bound keys and,
// unless the floor turned the segment away, tier totals, and on the segment's evaluated, pre-screened,
// cache-hit and feasible counts, the walk counting a class's leaves at once
// as the search did. Each slot's bound keys must be its classes' batch-time
// bound with the least Mem1 of its fitting classes.
func TestPassMatchesClassWalk(t *testing.T) {
	tight := model.MustPreset("megatron-1T")
	tight.Blocks = 32
	cases := append(deltaCases(), deltaCase{
		name: "floored",
		m:    tight.WithBatch(512),
		sys:  system.A100(128).WithMem1Capacity(40 * units.GiB),
		opts: execution.EnumOptions{Procs: 128, Features: execution.FeatureAll, PinBeneficial: true, MaxInterleave: 4},
	})
	fits, totals := 0, 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			wr, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			tog := tc.opts.Toggles()
			lat := LatticeFor(&tc.opts)
			var pchain RunInfo
			var p SegmentPass
			segments, floored := 0, 0
			for _, tpd := range tc.opts.Triples(tc.m) {
				walked := 0
				tc.opts.Segments(&tc.m, tpd, func(root *execution.Strategy) bool {
					segments++
					fl, ok := pr.mem1Floor(pr.chainOf(&pchain), lat, root, pr.shapeOf(root))
					cut := ok && fl > tc.sys.Mem1.Capacity
					if cut {
						floored++
					}
					pr.PassSegment(&pchain, lat, root, &p)
					var want [4]int // evaluated, pre-screened, cache hits, feasible
					least := [MaxSlots]units.Bytes{}
					for i := range least {
						least[i] = units.Bytes(math.Inf(1))
					}
					walkClasses(&tog, *root, func(leaves []execution.Strategy) {
						st := leaves[0]
						s, info, _, ok := scratchState(wr, st)
						var k Keys
						if ok {
							k = wr.boundKeys(s)
						}
						n := len(leaves)
						want[0] += n
						switch {
						case info.PreScreened:
							want[1] += n
						case info.CacheHit:
							want[2] += n
						default:
							want[2] += n - 1
						}
						i, pk, pfits := p.Class(&st)
						if pfits != ok || ok && pk != k {
							t.Fatalf("%v: the pass answers fits %v %+v, scratch %v %+v", st, pfits, pk, ok, k)
						}
						if !info.PreScreened && !cut {
							totals++
							if tot := p.total(i, screenBits(&st)); tot[0] != s.mem1.Total() || tot[1] != s.mem2.Total() {
								t.Fatalf("%v: the pass's totals %v, %v; scratch %v, %v",
									st, float64(tot[0]), float64(tot[1]), float64(s.mem1.Total()), float64(s.mem2.Total()))
							}
						}
						if ok {
							want[3] += n
							least[i] = minBytes(least[i], k.Mem1)
							if bk, _ := p.Bound(i); bk.BatchTime != k.BatchTime || bk.SampleRate != k.SampleRate {
								t.Fatalf("%v: slot %d's bound keys %+v, the class's %+v", st, i, bk, k)
							}
						}
					})
					if got := [4]int{p.Evaluated, p.PreScreened, p.CacheHits, p.Feasible}; got != want {
						t.Fatalf("%v: the pass counts %v, the class-by-class walk %v", root, got, want)
					}
					for i := 0; i < lat.Slots(); i++ {
						if k, ok := p.Bound(i); ok != !math.IsInf(float64(least[i]), 1) || ok && k.Mem1 != least[i] {
							t.Fatalf("%v: slot %d's bound keys %+v %v, least fitting Mem1 %v", root, i, k, ok, float64(least[i]))
						}
					}
					fits += p.Feasible
					walked += tog.Len()
					return walked < 4096
				})
			}
			if floored == 0 && tc.name == "floored" {
				t.Fatalf("none of %d segments floored", segments)
			}
		})
	}
	if fits == 0 || totals == 0 {
		t.Fatalf("%d leaves fit, %d class totals compared: the bound keys or totals went unchecked", fits, totals)
	}
}

// TestPassFloorsMatchChainFloor holds the floor half of the pass to the
// chain's class floor: on every delta case (the all-mem2 one also with the
// beneficial toggles pinned), for every segment, PassFloors with no memory
// limit and a keep that takes everything must select exactly the classes
// whose first leaf a scratch evaluation on another Runner finds feasible,
// each with floor keys bit for bit the ones that evaluation's terms give
// (floorKeys), and hand them back in ascending floor, ties in slot and
// screen order.
func TestPassFloorsMatchChainFloor(t *testing.T) {
	var cases []deltaCase
	for _, tc := range deltaCases() {
		cases = append(cases, tc)
		if tc.opts.HasMem2 {
			tc.name += "/pinned"
			tc.opts.PinBeneficial = true
			cases = append(cases, tc)
		}
	}
	floors := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			wr, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			tog := tc.opts.Toggles()
			lat := LatticeFor(&tc.opts)
			var pchain RunInfo
			var p SegmentPass
			below := make([]units.Bytes, lat.Slots())
			for i := range below {
				below[i] = units.Bytes(math.Inf(1))
			}
			for _, tpd := range tc.opts.Triples(tc.m) {
				tc.opts.Segments(&tc.m, tpd, func(root *execution.Strategy) bool {
					pr.PassSegment(&pchain, lat, root, &p)
					order := pr.PassFloors(&pchain, &p, below, func(*Keys) bool { return true })
					for j := 1; j < len(order); j++ {
						a, b := order[j-1], order[j]
						if fa, fb := p.floors[a.Slot][a.Screen], p.floors[b.Slot][b.Screen]; fa > fb || fa == fb && (a.Slot > b.Slot || a.Slot == b.Slot && a.Screen >= b.Screen) {
							t.Fatalf("%v: the floor pass hands class %+v (floor %v) before %+v (floor %v)", root, a, fa, b, fb)
						}
					}
					feasible := 0
					walkClasses(&tog, *root, func(leaves []execution.Strategy) {
						st := leaves[0]
						s, _, _, ok := scratchState(wr, st)
						pk, picked := p.Selected(&st)
						if picked != ok {
							t.Fatalf("%v: the floor pass selects %v, scratch finds it feasible %v", st, picked, ok)
						}
						if !ok {
							return
						}
						feasible++
						if f := wr.floorKeys(s); pk != f {
							t.Fatalf("%v: the pass's floor keys %+v, scratch's %+v", st, pk, f)
						}
					})
					if len(order) != feasible {
						t.Fatalf("%v: the floor pass selected %d classes, %d are feasible", root, len(order), feasible)
					}
					floors += feasible
					return true
				})
			}
		})
	}
	if floors == 0 {
		t.Fatal("no class floor was compared")
	}
}

// Class returns, for the class *st stands on, its profile slot's index, its
// bound keys — bit for bit a scratch evaluation's of any of its leaves — and
// whether it fits. st must be a leaf of the segment the pass was last run
// on.
func (p *SegmentPass) Class(st *execution.Strategy) (slot int, k Keys, fits bool) {
	slot = int(p.lat.slotOf[slotFor(st)])
	s := &p.slots[slot]
	b := screenBits(st)
	if s.fits&(1<<b) == 0 {
		return slot, Keys{}, false
	}
	return slot, Keys{BatchTime: s.bound, SampleRate: s.rate, Mem1: p.total(slot, b)[0]}, true
}

// Selected returns, for the class *st stands on, its floor keys and whether
// the last PassFloors selected it. st must be a leaf of the segment the
// pass was last run on.
func (p *SegmentPass) Selected(st *execution.Strategy) (Keys, bool) {
	c := Class{int(p.lat.slotOf[slotFor(st)]), screenBits(st)}
	if !slices.Contains(p.order, c) {
		return Keys{}, false
	}
	return p.Floor(c.Slot, c.Screen), true
}
