package execution

import (
	"math/rand"
	"reflect"
	"testing"

	"calculon/internal/model"
	"calculon/internal/units"
)

// TestLatticeCountsConsistent is the counting obligation of the lattice
// search: for randomized enumeration options, the closed-form SpaceSize, the
// sum of per-triple TripleLeafCount values, and the number of strategies
// Enumerate actually generates must all agree. The lattice-pruned search
// relies on this equality to keep Evaluated/PreScreened counters and ETA
// totals exact while skipping whole subtrees.
func TestLatticeCountsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []string{"gpt3-13B", "megatron-22B", "gpt2-1.5B", "llama-65B"}
	features := []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll}
	procChoices := []int{8, 12, 16, 32, 48}
	batchChoices := []int{8, 16, 24, 32}

	const draws = 40
	for i := 0; i < draws; i++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).
			WithBatch(batchChoices[rng.Intn(len(batchChoices))])
		o := EnumOptions{
			Procs:         procChoices[rng.Intn(len(procChoices))],
			Features:      features[rng.Intn(len(features))],
			HasMem2:       rng.Intn(2) == 0,
			MaxTP:         []int{0, 4, 8}[rng.Intn(3)],
			MaxInterleave: []int{0, 1, 2, 3}[rng.Intn(4)],
			PinBeneficial: rng.Intn(2) == 0,
		}
		// Occasionally pin a degree, as the grid studies do.
		if rng.Intn(4) == 0 {
			o.FixedTP = []int{1, 2, 4}[rng.Intn(3)]
		}

		triples := o.Triples(m)
		bySum := 0
		for _, tpd := range triples {
			bySum += o.TripleLeafCount(m, tpd)
		}
		byEnum := o.Enumerate(m, func(Strategy) bool { return true })
		if closed := o.SpaceSize(m); closed != byEnum || bySum != byEnum {
			t.Errorf("draw %d (%+v): SpaceSize=%d, Σ TripleLeafCount=%d, Enumerate=%d",
				i, o, closed, bySum, byEnum)
		}

		// Per-triple: the closed-form leaf count must match the enumerator's
		// count for that subtree alone, and the subtree's segment count times
		// the segment length (the parallel search's unit of work).
		tog := o.Toggles()
		for _, tpd := range triples {
			want := o.TripleLeafCount(m, tpd)
			n, _ := o.EnumerateTriple(m, tpd, func(Strategy) bool { return true })
			if n != want {
				t.Errorf("draw %d triple %v: TripleLeafCount=%d, EnumerateTriple=%d",
					i, tpd, want, n)
			}
			segs := 0
			o.Segments(&m, tpd, func(*Strategy) bool { segs++; return true })
			if segs*tog.Len() != want {
				t.Errorf("draw %d triple %v: %d segments × %d toggles != TripleLeafCount %d",
					i, tpd, segs, tog.Len(), want)
			}
		}
	}
}

// TestSegmentWalkMatchesEnumerateTriple is the ordering obligation of the
// segment walk: the parallel search's workers write segment roots into a
// Strategy they own and walk their toggles there. Walking copies of the
// roots, in order and concatenated, must reproduce EnumerateTriple
// element for element — same strategies, same order, so the same sequence
// numbers — for every feature set, offload tier, pinning, and interleave
// cap.
func TestSegmentWalkMatchesEnumerateTriple(t *testing.T) {
	models := []model.LLM{
		model.MustPreset("gpt3-13B").WithBatch(16),
		model.MustPreset("turing-530B").WithBatch(24),
	}
	for _, m := range models {
		for _, fs := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
			for _, mem2 := range []bool{false, true} {
				for _, pin := range []bool{false, true} {
					for _, maxIl := range []int{0, 2, 4} {
						o := EnumOptions{Procs: 24, Features: fs, HasMem2: mem2,
							PinBeneficial: pin, MaxInterleave: maxIl}
						triples := o.Triples(m)
						if len(triples) > 2 {
							triples = triples[len(triples)-2:] // the deepest pipelines: most schedules
						}
						for _, tpd := range triples {
							var want []Strategy
							o.EnumerateTriple(m, tpd, func(s Strategy) bool {
								want = append(want, s)
								return true
							})
							var roots []Strategy
							o.Segments(&m, tpd, func(root *Strategy) bool {
								roots = append(roots, *root)
								return true
							})
							tog := o.Toggles()
							var got []Strategy
							for _, root := range roots {
								tog.Walk(&root, func(s *Strategy, _ FieldMask) bool {
									got = append(got, *s)
									return true
								})
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %+v triple %v: segment walk (%d leaves) differs from EnumerateTriple (%d leaves)",
									m.Name, o, tpd, len(got), len(want))
							}
							if len(roots)*tog.Len() != o.TripleLeafCount(m, tpd) {
								t.Fatalf("%s %+v triple %v: %d segments × %d toggles != TripleLeafCount %d",
									m.Name, o, tpd, len(roots), tog.Len(), o.TripleLeafCount(m, tpd))
							}
						}
					}
				}
			}
		}
	}
}

// TestCheckTripleDecidesSubtree is the soundness obligation of the subtree
// pre-screen: CheckTriple rejects a (t,p,d) subtree exactly when Check would
// reject every one of its leaves, and accepts exactly when some leaf passes;
// a rejection reports the subtree's first leaf's verdict. Randomized over
// options (PinBeneficial and offload lattices included) and over limit
// regimes that make the memory bound bite at different parallelism
// degrees. Every offload lattice is screened twice: with a second tier, and
// with none (Limits.Mem2 = 0), where every offload combination fails the
// tier rule, ActOffload's included.
func TestCheckTripleDecidesSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	models := []string{"gpt3-13B", "megatron-22B", "chinchilla-70B"}
	features := []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll}
	procChoices := []int{8, 16, 32}

	const draws = 30
	prunedTotal, keptTotal, noTier := 0, 0, 0
	for i := 0; i < draws; i++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).WithBatch(16)
		o := EnumOptions{
			Procs:         procChoices[rng.Intn(len(procChoices))],
			Features:      features[rng.Intn(len(features))],
			HasMem2:       rng.Intn(2) == 0,
			MaxTP:         8,
			MaxInterleave: 2,
			PinBeneficial: rng.Intn(2) == 0,
		}
		lim := Limits{
			Procs: o.Procs,
			// 5..80 GiB of first-tier capacity: small enough that many triples
			// fail the weight/optimizer lower bound, large enough that some pass.
			Mem1: units.Bytes(5+rng.Intn(76)) * units.GiB,
		}
		screens := []Limits{lim}
		if o.HasMem2 {
			screens[0].Mem2 = units.Bytes(64+rng.Intn(448)) * units.GiB
			screens = append(screens, lim)
			if o.Features == FeatureAll {
				noTier++
			}
		}
		for _, lim := range screens {
			p := NewPreScreen(m, lim)
			for _, tpd := range o.Triples(m) {
				verdict := p.CheckTriple(o, tpd)
				anyPass := false
				var firstErr error
				o.EnumerateTriple(m, tpd, func(s Strategy) bool {
					v := p.Check(&s)
					if firstErr == nil {
						firstErr = v.Err()
					}
					anyPass = v.OK()
					return !anyPass
				})
				switch {
				case verdict != nil && anyPass:
					t.Errorf("draw %d %+v triple %v: CheckTriple rejected (%v) but a leaf passes Check",
						i, lim, tpd, verdict)
				case verdict == nil && !anyPass:
					t.Errorf("draw %d %+v triple %v: CheckTriple accepted but every leaf fails Check",
						i, lim, tpd)
				case verdict != nil && verdict.Error() != firstErr.Error():
					t.Errorf("draw %d %+v triple %v: CheckTriple reported %q, the first leaf %q",
						i, lim, tpd, verdict, firstErr)
				}
				if verdict != nil {
					prunedTotal++
				} else {
					keptTotal++
				}
			}
		}
	}
	// The limit regimes above must actually exercise both branches and the
	// offload lattice without a second tier, or the assertions are vacuous.
	if prunedTotal == 0 || keptTotal == 0 || noTier == 0 {
		t.Errorf("degenerate draw set: pruned=%d kept=%d triples, %d offload lattices — want each exercised",
			prunedTotal, keptTotal, noTier)
	}
}
