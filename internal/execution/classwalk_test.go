package execution

import (
	"fmt"
	"math/rand"
	"testing"
)

// classOf is a leaf with its variant toggles cleared: the leaves of one
// memory class share it.
func classOf(s Strategy) Strategy {
	s.TPRSAG, s.PPRSAG, s.TPOverlap = false, false, ""
	return s
}

// TestClassWalkMatchesWalk is the class walk's oracle: for every feature
// set, with and without the pinned toggles and a second memory tier, and
// whether the caller descends into every class, none or a random choice of
// them, the class walk must
//   - yield each of Walk's combinations exactly once when it descends into
//     every class, and one leaf of each class whatever it descends into;
//   - give each leaf its index in Walk as its rank;
//   - move only VariantFields inside a class, and report as the class's
//     Len the number of Walk's leaves in that class.
func TestClassWalkMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
		for _, pin := range []bool{false, true} {
			for _, mem2 := range []bool{false, true} {
				o := EnumOptions{Features: f, PinBeneficial: pin, HasMem2: mem2}
				tog := o.Toggles()
				root := Strategy{TP: 2, PP: 4, DP: 8, Microbatch: 2, Interleave: 2, OneFOneB: true}
				rankOf := map[Strategy]int{}
				classLen := map[Strategy]int{}
				tog.Walk(&root, func(s *Strategy) bool {
					rankOf[*s] = len(rankOf)
					classLen[classOf(*s)]++
					return true
				})
				if len(rankOf) != tog.Len() {
					t.Fatalf("%+v: Walk yields %d distinct leaves, Len is %d", o, len(rankOf), tog.Len())
				}
				for _, mode := range []string{"all", "none", "random"} {
					name := fmt.Sprintf("%s/pin=%v/mem2=%v/%s", f, pin, mem2, mode)
					descend := func() bool { return mode == "all" || mode == "random" && rng.Intn(2) == 0 }
					checkClassWalk(t, name, &tog, root, rankOf, classLen, descend)
				}
			}
		}
	}
}

func checkClassWalk(t *testing.T, name string, tog *Toggles, root Strategy,
	rankOf map[Strategy]int, classLen map[Strategy]int, descend func() bool) {
	t.Helper()
	st := root
	seen := map[Strategy]bool{}
	classes := map[Strategy]bool{}
	descendedAll := true
	var prev *Strategy
	visit := func(w *ClassWalk) {
		rank, ok := rankOf[st]
		if !ok || seen[st] {
			t.Fatalf("%s: leaf %v is not one of Walk's or was yielded twice", name, st)
		}
		if w.Rank() != rank {
			t.Fatalf("%s: leaf %v has rank %d, Walk puts it at %d", name, st, w.Rank(), rank)
		}
		seen[st] = true
		p := st
		prev = &p
	}
	w := tog.Classes(&st)
	for more := true; more; more = w.NextClass() {
		visit(&w)
		first := st
		class := classOf(st)
		if classes[class] {
			t.Fatalf("%s: class of %v visited twice", name, st)
		}
		classes[class] = true
		if w.Len() != classLen[class] {
			t.Fatalf("%s: class of %v has Len %d, Walk has %d leaves in it", name, st, w.Len(), classLen[class])
		}
		if !descend() {
			descendedAll = false
			continue
		}
		n := 1
		for w.NextLeaf() {
			visit(&w)
			n++
			if moved := DiffMask(&first, &st); moved&^VariantFields != 0 {
				t.Fatalf("%s: %v moved %b from its class's first leaf %v", name, st, moved, first)
			}
		}
		if DiffMask(prev, &st) != 0 {
			t.Fatalf("%s: an exhausted class moved the strategy", name)
		}
		if n != w.Len() {
			t.Fatalf("%s: class of %v yielded %d leaves, Len %d", name, first, n, w.Len())
		}
	}
	if len(classes) != len(classLen) {
		t.Fatalf("%s: %d classes visited, Walk has %d", name, len(classes), len(classLen))
	}
	if descendedAll && len(seen) != len(rankOf) {
		t.Fatalf("%s: %d leaves yielded, Walk has %d", name, len(seen), len(rankOf))
	}
	if st.TP != root.TP || st.PP != root.PP || st.DP != root.DP || st.Microbatch != root.Microbatch ||
		st.Interleave != root.Interleave || !st.OneFOneB {
		t.Fatalf("%s: the walk moved a shape field: %v", name, st)
	}
}

// TestClassWalkSeekMatchesNextClass holds Seek to NextClass: for every
// lattice, a walk that seeks a random subset of the classes, descending
// into a random subset of those, must stand where a NextClass walk that
// descends into the same classes stands at each class it seeks (the same
// strategy, class number, leaf ranks and Gray counter state, so NextClass
// may follow a Seek). A seek that passes a (SeqParallel, TPRedoForSP) step
// after descending changes the completion's rest, so the descents are
// random too.
func TestClassWalkSeekMatchesNextClass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
		for _, pin := range []bool{false, true} {
			for _, mem2 := range []bool{false, true} {
				o := EnumOptions{Features: f, PinBeneficial: pin, HasMem2: mem2}
				tog := o.Toggles()
				for round := 0; round < 20; round++ {
					name := fmt.Sprintf("%s/pin=%v/mem2=%v/round %d", f, pin, mem2, round)
					root := Strategy{TP: 2, PP: 4, DP: 8, Microbatch: 2, Interleave: 2, OneFOneB: true}
					a, b := root, root
					wa, wb := tog.Classes(&a), tog.Classes(&b)
					visit := 1 + rng.Intn(8) // seek about one class in visit
					for more, k := true, 0; more; more, k = wa.NextClass(), k+1 {
						if wa.Class() != k {
							t.Fatalf("%s: NextClass numbers class %d as %d", name, k, wa.Class())
						}
						if rng.Intn(visit) != 0 {
							continue
						}
						if wb.Seek(k); b != a || wb.Class() != k || wb.Rank() != wa.Rank() || wb.gray != wa.gray {
							t.Fatalf("%s: Seek(%d) at %v (class %d, rank %d); NextClass at %v (rank %d)",
								name, k, b, wb.Class(), wb.Rank(), a, wa.Rank())
						}
						if rng.Intn(2) == 0 {
							continue
						}
						for wa.NextLeaf() {
							if !wb.NextLeaf() || b != a || wb.Rank() != wa.Rank() {
								t.Fatalf("%s: class %d: the seeking walk's leaf %v, NextClass's %v", name, k, b, a)
							}
						}
						if wb.NextLeaf() {
							t.Fatalf("%s: class %d: the seeking walk has more leaves", name, k)
						}
					}
				}
			}
		}
	}
}

// TestClassWalkAllocatesNothing: walking a full segment class by class,
// descending into every class, allocates nothing.
func TestClassWalkAllocatesNothing(t *testing.T) {
	tog := EnumOptions{Features: FeatureAll, HasMem2: true}.Toggles()
	st := Strategy{TP: 2, PP: 4, DP: 8, Microbatch: 2, Interleave: 2, OneFOneB: true}
	leaves := 0
	walk := func() {
		w := tog.Classes(&st)
		for more := true; more; more = w.NextClass() {
			leaves += w.Rank() & 1
			for w.NextLeaf() {
				leaves += w.Rank() & 1
			}
		}
	}
	if n := testing.AllocsPerRun(5, walk); n != 0 {
		t.Fatalf("a class walk of %d leaves allocated %v times", tog.Len(), n)
	}
	if leaves == 0 {
		t.Fatal("the walk yielded no leaf")
	}
}

// TestLatticeBulkInvariants pins what a search relies on when it counts a
// class or a whole segment at once, for every toggle lattice: every feature
// set, with and without the pinned toggles and a second memory tier.
//   - Every leaf passes ValidateToggles, so a leaf the pre-screen passes is
//     admitted and reads its class's block profile.
//   - The class lengths of a ClassWalk sum to Len.
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

				sum := 0
				w := tog.Classes(&root)
				for more := true; more; more = w.NextClass() {
					sum += w.Len()
				}
				if sum != tog.Len() {
					t.Fatalf("%s: class lengths sum to %d, Len is %d", name, sum, tog.Len())
				}

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
