package execution

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// variantFields are the Strategy fields that vary inside a memory class.
var variantFields = []string{"TPRSAG", "PPRSAG", "TPOverlap"}

// classOf is a leaf with its variant toggles cleared: the leaves of one
// memory class share it.
func classOf(s Strategy) Strategy {
	s.TPRSAG, s.PPRSAG, s.TPOverlap = false, false, ""
	return s
}

// diffFields returns the names of the Strategy fields on which a and b
// differ.
func diffFields(a, b Strategy) []string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	var names []string
	for i := range av.NumField() {
		if av.Field(i).Interface() != bv.Field(i).Interface() {
			names = append(names, av.Type().Field(i).Name)
		}
	}
	return names
}

// flipField sets field i of *s to another value of its kind.
func flipField(t *testing.T, s *Strategy, i int) {
	t.Helper()
	f := reflect.ValueOf(s).Elem().Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.String:
		f.SetString(f.String() + "x")
	default:
		t.Fatalf("Strategy field %s has kind %s; teach flipField to change it",
			reflect.TypeFor[Strategy]().Field(i).Name, f.Kind())
	}
}

// TestSameClass flips each Strategy field of several strategies by
// reflection: flipping a field outside variantFields must put the strategy
// in another class, flipping one of variantFields (or all three) must keep
// it in its class. A field added to Strategy is class-defining unless
// SameClass and variantFields both name it, so this test needs no update
// for it.
func TestSameClass(t *testing.T) {
	for _, base := range []Strategy{
		{},
		validBase(),
		{TP: 4, PP: 2, DP: 8, Microbatch: 2, Interleave: 2, OneFOneB: true, Recompute: RecomputeAttn,
			SeqParallel: true, TPRSAG: true, TPRedoForSP: true, TPOverlap: TPOverlapRing, DPOverlap: true,
			PPRSAG: true, OptimSharding: true, FusedLayers: true, WeightOffload: true, ActOffload: true, OptimOffload: true},
	} {
		if !SameClass(&base, &base) {
			t.Fatalf("%+v is not in its own class", base)
		}
		all := base
		for i := range reflect.TypeFor[Strategy]().NumField() {
			name := reflect.TypeFor[Strategy]().Field(i).Name
			moved := base
			flipField(t, &moved, i)
			variant := slices.Contains(variantFields, name)
			if SameClass(&base, &moved) != variant || SameClass(&moved, &base) != variant {
				t.Errorf("flipping %s of %+v: SameClass = %v, want %v", name, base, !variant, variant)
			}
			if variant {
				flipField(t, &all, i)
			}
		}
		if !SameClass(&base, &all) {
			t.Errorf("flipping every variant field of %+v left its class", base)
		}
	}
}

func ExampleSameClass() {
	a := Strategy{TP: 4, PP: 2, DP: 8, Microbatch: 1, Interleave: 1, TPRSAG: true}
	b := a
	b.PPRSAG, b.TPOverlap = true, TPOverlapRing
	c := a
	c.ActOffload = true
	fmt.Println(SameClass(&a, &b), SameClass(&a, &c))
	// Output: true false
}

// TestClassLeavesMatchWalk is ClassLeaves' oracle: on every toggle lattice
// (feature set × second tier × PinBeneficial), for every class — each
// combination of BlockSwitches with each of ScreenSwitches — ClassLeaves
// must
//   - yield as each leaf's rank the index of that leaf in Walk's order;
//   - yield only leaves SameClass puts in the class of the leaf it starts
//     from;
//   - move one variant field per step and nothing else;
//   - yield as many leaves as Walk's leaves of the class, the same count
//     for every class of one block-switch combination;
//   - and, over all classes, yield every rank from 0 to Len()-1 once.
//
// It also stops when yield does and allocates nothing.
func TestClassLeavesMatchWalk(t *testing.T) {
	for _, f := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
		for _, mem2 := range []bool{false, true} {
			for _, pin := range []bool{false, true} {
				o := EnumOptions{Features: f, HasMem2: mem2, PinBeneficial: pin}
				name := fmt.Sprintf("%s/mem2=%v/pin=%v", f, mem2, pin)
				tog := o.Toggles()
				root := Strategy{TP: 2, PP: 4, DP: 8, Microbatch: 2, Interleave: 2, OneFOneB: true}
				var walk []Strategy
				classLen := map[Strategy]int{}
				st := root
				tog.Walk(&st, func(s *Strategy) bool {
					walk = append(walk, *s)
					classLen[classOf(*s)]++
					return true
				})
				ranked := make([]bool, tog.Len())
				tog.BlockSwitches(&root, func(b *Strategy) {
					slotLen := -1
					tog.ScreenSwitches(b, func(s *Strategy) {
						st := *s
						root, first, prev, n := st, classOf(st), st, 0
						tog.ClassLeaves(&st, func(rank int) bool {
							if rank < 0 || rank >= len(walk) || walk[rank] != st {
								t.Fatalf("%s: leaf %v yielded as rank %d", name, st, rank)
							}
							if ranked[rank] {
								t.Fatalf("%s: rank %d yielded twice", name, rank)
							}
							ranked[rank] = true
							if !SameClass(&root, &st) || classOf(st) != first {
								t.Fatalf("%s: leaf %v left the class of %v", name, st, root)
							}
							if d := diffFields(prev, st); n > 0 && len(d) != 1 {
								t.Fatalf("%s: %v to %v moves fields %v", name, prev, st, d)
							}
							prev = st
							n++
							return true
						})
						if n != classLen[first] || slotLen >= 0 && n != slotLen {
							t.Fatalf("%s: class %v yields %d leaves; Walk has %d, its block switches' classes %d",
								name, first, n, classLen[first], slotLen)
						}
						slotLen = n
					})
				})
				for r, ok := range ranked {
					if !ok {
						t.Fatalf("%s: no class yields rank %d", name, r)
					}
				}
				st = walk[len(walk)-1]
				calls := 0
				if tog.ClassLeaves(&st, func(int) bool { calls++; return false }) || calls != 1 {
					t.Fatalf("%s: ClassLeaves ran on after yield stopped it (%d calls)", name, calls)
				}
				if n := testing.AllocsPerRun(5, func() { tog.ClassLeaves(&st, func(r int) bool { calls += r & 1; return true }) }); n != 0 {
					t.Fatalf("%s: ClassLeaves allocated %v times", name, n)
				}
			}
		}
	}
}

// TestLatticeBulkInvariants pins what a search relies on when it counts a
// class or a whole segment at once, for every toggle lattice: every feature
// set, with and without the pinned toggles and a second memory tier.
//   - Every leaf passes ValidateToggles, so a leaf the pre-screen passes is
//     admitted and reads its class's block profile.
//   - ScreenSwitches yields each combination of the screen switches that
//     Walk's leaves take, once, and each holds exactly the number of leaves
//     it returns, Len over the number of combinations.
//   - BlockSwitches yields each combination of the block switches that
//     Walk's leaves take, once, and no other.
func TestLatticeBulkInvariants(t *testing.T) {
	type screen struct{ w, a, o, sh, dov bool }
	type block struct {
		r        RecomputeMode
		sp, redo bool
		fused    bool
	}
	screenOf := func(s *Strategy) screen {
		return screen{s.WeightOffload, s.ActOffload, s.OptimOffload, s.OptimSharding, s.DPOverlap}
	}
	blockOf := func(s *Strategy) block { return block{s.Recompute, s.SeqParallel, s.TPRedoForSP, s.FusedLayers} }
	for _, f := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
		for _, pin := range []bool{false, true} {
			for _, mem2 := range []bool{false, true} {
				o := EnumOptions{Features: f, PinBeneficial: pin, HasMem2: mem2}
				name := fmt.Sprintf("%s/pin=%v/mem2=%v", f, pin, mem2)
				tog := o.Toggles()
				root := Strategy{TP: 2, PP: 4, DP: 8, Microbatch: 2, Interleave: 2, OneFOneB: true}
				screens, blocks := map[screen]int{}, map[block]bool{}
				tog.Walk(&root, func(s *Strategy) bool {
					if err := s.ValidateToggles(); err != nil {
						t.Fatalf("%s: leaf %v fails the toggle rules: %v", name, s, err)
					}
					screens[screenOf(s)]++
					blocks[blockOf(s)] = true
					return true
				})

				yielded := map[screen]bool{}
				per := tog.ScreenSwitches(&root, func(s *Strategy) {
					k := screenOf(s)
					if yielded[k] {
						t.Fatalf("%s: screen switches %+v yielded twice", name, k)
					}
					yielded[k] = true
				})
				if len(yielded) != len(screens) || per*len(screens) != tog.Len() {
					t.Fatalf("%s: %d screen combinations of %d leaves each yielded; Walk has %d in %d leaves",
						name, len(yielded), per, len(screens), tog.Len())
				}
				for k, n := range screens {
					if !yielded[k] || n != per {
						t.Fatalf("%s: screen switches %+v hold %d leaves (yielded %v), want %d", name, k, n, yielded[k], per)
					}
				}

				n := 0
				tog.BlockSwitches(&root, func(s *Strategy) {
					if !blocks[blockOf(s)] {
						t.Fatalf("%s: block switches %+v are no leaf's", name, blockOf(s))
					}
					delete(blocks, blockOf(s))
					n++
				})
				if len(blocks) != 0 {
					t.Fatalf("%s: %d of Walk's block switch combinations not yielded (%d were)", name, len(blocks), n)
				}
			}
		}
	}
}
