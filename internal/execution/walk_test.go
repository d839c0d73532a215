package execution

import "testing"

// toggleDim identifies which of the seven toggle dimensions two strategies
// differ in, treating the comm combo (TPRSAG/SeqParallel/TPRedoForSP/PPRSAG)
// and the offload triple (Weight/Act/Optim) each as one dimension, exactly
// as Toggles.Walk enumerates them.
func toggleDims(a, b Strategy) []string {
	var dims []string
	if a.Recompute != b.Recompute {
		dims = append(dims, "recompute")
	}
	if a.TPRSAG != b.TPRSAG || a.SeqParallel != b.SeqParallel ||
		a.TPRedoForSP != b.TPRedoForSP || a.PPRSAG != b.PPRSAG {
		dims = append(dims, "comm")
	}
	if a.TPOverlap != b.TPOverlap {
		dims = append(dims, "tpOverlap")
	}
	if a.DPOverlap != b.DPOverlap {
		dims = append(dims, "dpOverlap")
	}
	if a.OptimSharding != b.OptimSharding {
		dims = append(dims, "optimSharding")
	}
	if a.FusedLayers != b.FusedLayers {
		dims = append(dims, "fusedLayers")
	}
	if a.WeightOffload != b.WeightOffload || a.ActOffload != b.ActOffload ||
		a.OptimOffload != b.OptimOffload {
		dims = append(dims, "offload")
	}
	return dims
}

// walkToggles collects the segment rooted at root, in walk order.
func walkToggles(o EnumOptions, root Strategy, yield func(Strategy) bool) bool {
	tog := o.Toggles()
	return tog.Walk(&root, func(s *Strategy) bool { return yield(*s) })
}

// TestForEachToggleGrayAdjacent proves Walk's Gray property, which the
// ranks ClassLeaves reads back rest on: successive toggle emissions differ
// in exactly one dimension, and for the offload dimension in exactly one
// offload switch.
func TestForEachToggleGrayAdjacent(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts EnumOptions
	}{
		{"baseline", EnumOptions{Features: FeatureBaseline}},
		{"seqpar", EnumOptions{Features: FeatureSeqPar}},
		{"all", EnumOptions{Features: FeatureAll}},
		{"all+mem2", EnumOptions{Features: FeatureAll, HasMem2: true}},
		{"all+mem2+pin", EnumOptions{Features: FeatureAll, HasMem2: true, PinBeneficial: true}},
		{"seqpar+mem2", EnumOptions{Features: FeatureSeqPar, HasMem2: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seq []Strategy
			walkToggles(tc.opts, Strategy{TP: 2, PP: 2, DP: 2, Microbatch: 1, Interleave: 1}, func(s Strategy) bool {
				seq = append(seq, s)
				return true
			})
			tog := tc.opts.Toggles()
			if len(seq) != tog.Len() {
				t.Fatalf("emitted %d toggles, Toggles().Len() says %d", len(seq), tog.Len())
			}
			for i := 1; i < len(seq); i++ {
				dims := toggleDims(seq[i-1], seq[i])
				if len(dims) != 1 {
					t.Fatalf("step %d changes %d dimensions %v:\nprev %+v\ncurr %+v",
						i, len(dims), dims, seq[i-1], seq[i])
				}
				if dims[0] == "offload" {
					flips := 0
					if seq[i-1].WeightOffload != seq[i].WeightOffload {
						flips++
					}
					if seq[i-1].ActOffload != seq[i].ActOffload {
						flips++
					}
					if seq[i-1].OptimOffload != seq[i].OptimOffload {
						flips++
					}
					if flips != 1 {
						t.Fatalf("step %d flips %d offload switches", i, flips)
					}
				}
			}
		})
	}
}

// TestForEachToggleExactlyOnce proves the Gray walk emits the same set of
// toggle combinations as before — every combination exactly once.
func TestForEachToggleExactlyOnce(t *testing.T) {
	for _, opts := range []EnumOptions{
		{Features: FeatureBaseline},
		{Features: FeatureSeqPar},
		{Features: FeatureAll},
		{Features: FeatureAll, HasMem2: true},
		{Features: FeatureAll, HasMem2: true, PinBeneficial: true},
	} {
		seen := map[Strategy]int{}
		walkToggles(opts, Strategy{TP: 4, PP: 1, DP: 1, Microbatch: 2, Interleave: 1}, func(s Strategy) bool {
			seen[s]++
			return true
		})
		if tog := opts.Toggles(); len(seen) != tog.Len() {
			t.Fatalf("opts %+v: %d distinct toggles, want %d", opts, len(seen), tog.Len())
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("opts %+v: strategy emitted %d times: %+v", opts, n, s)
			}
		}
	}
}

// TestForEachToggleEarlyStop checks the walk honors a false yield.
func TestForEachToggleEarlyStop(t *testing.T) {
	opts := EnumOptions{Features: FeatureAll, HasMem2: true}
	n := 0
	done := walkToggles(opts, Strategy{TP: 1, PP: 1, DP: 1, Microbatch: 1, Interleave: 1}, func(Strategy) bool {
		n++
		return n < 5
	})
	if done || n != 5 {
		t.Fatalf("done=%v n=%d, want early stop after 5", done, n)
	}
}
