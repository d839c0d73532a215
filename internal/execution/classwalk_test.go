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
//   - give each leaf the DiffMask against the leaf it yielded before
//     (AllFields on the first);
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
				tog.Walk(&root, func(s *Strategy, _ FieldMask) bool {
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
		want := AllFields
		if prev != nil {
			want = DiffMask(prev, &st)
		}
		if w.Mask() != want {
			t.Fatalf("%s: leaf %v has mask %b, its diff from the previous leaf is %b", name, st, w.Mask(), want)
		}
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
		if w.Mask() != 0 || DiffMask(prev, &st) != 0 {
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
