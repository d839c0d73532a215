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
								tog.Walk(&root, func(s *Strategy) bool {
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

// TestCheckTripleAllocatesNothing pins the lattice prune's cost: the
// search's chunk table only compares CheckTriple's error with nil, so a
// rejected triple must put neither its root nor its verdict on the heap.
func TestCheckTripleAllocatesNothing(t *testing.T) {
	m := model.MustPreset("turing-530B").WithBatch(3072)
	o := EnumOptions{Procs: 16, Features: FeatureAll, HasMem2: false}
	p := NewPreScreen(m, Limits{Procs: 16, Mem1: 40 * units.GiB})
	tpd := [3]int{8, 2, 1}
	if p.CheckTriple(o, tpd) == nil {
		t.Fatalf("triple %v passes the screen; the test needs a rejected one", tpd)
	}
	rejected := false
	if n := testing.AllocsPerRun(100, func() { rejected = p.CheckTriple(o, tpd) != nil }); n != 0 || !rejected {
		t.Errorf("CheckTriple made %v allocations per rejected triple, want 0", n)
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

// bruteSegments lists the segment roots of the whole space by brute force,
// straight from Table 1's divisibility rules with plain loops over 1..n:
// t·p·d = procs with t ≤ heads (and MaxTP), p ≤ blocks and d | batch, every
// degree pin respected; microbatch m | batch/d; then the GPipe-like
// schedule (unless PinBeneficial) and 1F1B at every interleave v dividing
// ⌈blocks/p⌉ (v ≤ MaxInterleave when set, v = 1 without pipelining). It
// shares no code with the enumerator, so it is the oracle the enumerator's
// order and closed-form shapes are checked against.
func bruteSegments(m *model.LLM, o EnumOptions) map[[3]int][][]Strategy {
	out := make(map[[3]int][][]Strategy)
	for t := 1; t <= o.Procs; t++ {
		if o.Procs%t != 0 || t > m.AttnHeads || o.MaxTP > 0 && t > o.MaxTP || o.FixedTP != 0 && t != o.FixedTP {
			continue
		}
		for p := 1; p <= o.Procs/t; p++ {
			if o.Procs/t%p != 0 || p > m.Blocks || o.FixedPP != 0 && p != o.FixedPP {
				continue
			}
			d := o.Procs / t / p
			if d > m.Batch || m.Batch%d != 0 || o.FixedDP != 0 && d != o.FixedDP {
				continue
			}
			bp := (m.Blocks + p - 1) / p
			var rows [][]Strategy
			for mb := 1; mb <= m.Batch/d; mb++ {
				if m.Batch/d%mb != 0 {
					continue
				}
				var row []Strategy
				if !o.PinBeneficial {
					row = append(row, Strategy{TP: t, PP: p, DP: d, Microbatch: mb, Interleave: 1})
				}
				for v := 1; v <= bp; v++ {
					if bp%v != 0 || o.MaxInterleave > 0 && v > o.MaxInterleave || v > 1 && p == 1 {
						continue
					}
					row = append(row, Strategy{TP: t, PP: p, DP: d, Microbatch: mb, OneFOneB: true, Interleave: v})
				}
				rows = append(rows, row)
			}
			out[[3]int{t, p, d}] = rows
		}
	}
	return out
}

// TestSegmentsMatchBruteForce checks the enumerator's segment roots against
// bruteSegments over random model shapes and options: Triples lists
// exactly the brute-force triples, in ascending t then p; each triple's
// TripleShape is its row count and row length; and Segments and every
// MicrobatchSegments row yield the brute-force roots, in order.
func TestSegmentsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const draws = 300
	segments := 0
	for i := 0; i < draws; i++ {
		m := model.MustPreset("gpt3-13B")
		m.Blocks = 1 + rng.Intn(96)
		m.AttnHeads = 1 + rng.Intn(64)
		m = m.WithBatch(1 + rng.Intn(192))
		o := EnumOptions{
			Procs:         1 + rng.Intn(96),
			MaxTP:         []int{0, 0, 2, 8}[rng.Intn(4)],
			MaxInterleave: []int{0, 0, 1, 2, 3, 6}[rng.Intn(6)],
			PinBeneficial: rng.Intn(2) == 0,
		}
		switch rng.Intn(6) {
		case 0:
			o.FixedTP = 1 + rng.Intn(8)
		case 1:
			o.FixedPP = 1 + rng.Intn(8)
		case 2:
			o.FixedDP = 1 + rng.Intn(8)
		}
		want := bruteSegments(&m, o)
		triples := o.Triples(m)
		if len(triples) != len(want) {
			t.Fatalf("draw %d (%+v, blocks %d heads %d batch %d): Triples lists %d triples, brute force %d",
				i, o, m.Blocks, m.AttnHeads, m.Batch, len(triples), len(want))
		}
		for k, tpd := range triples {
			if k > 0 && (tpd[0] < triples[k-1][0] || tpd[0] == triples[k-1][0] && tpd[1] <= triples[k-1][1]) {
				t.Fatalf("draw %d: triple %v follows %v", i, tpd, triples[k-1])
			}
			rows, ok := want[tpd]
			if !ok {
				t.Fatalf("draw %d: Triples lists %v, which brute force rejects", i, tpd)
			}
			mbs, scheds := o.TripleShape(&m, tpd)
			if mbs != len(rows) || scheds != len(rows[0]) {
				t.Errorf("draw %d triple %v: TripleShape %d×%d, brute force %d×%d", i, tpd, mbs, scheds, len(rows), len(rows[0]))
			}
			var all []Strategy
			o.Segments(&m, tpd, func(st *Strategy) bool { all = append(all, *st); return true })
			var flat []Strategy
			for r, row := range rows {
				flat = append(flat, row...)
				var got []Strategy
				var st Strategy
				o.MicrobatchSegments(&m, tpd, row[0].Microbatch, &st, func(st *Strategy) bool { got = append(got, *st); return true })
				if !reflect.DeepEqual(got, row) {
					t.Fatalf("draw %d triple %v row %d: MicrobatchSegments yields\n%v\nbrute force\n%v", i, tpd, r, got, row)
				}
			}
			if !reflect.DeepEqual(all, flat) {
				t.Fatalf("draw %d triple %v: Segments yields\n%v\nbrute force\n%v", i, tpd, all, flat)
			}
			segments += len(flat)
		}
	}
	t.Logf("%d segment roots checked", segments)
}

// TestSegmentRootsPassValidateShape pins what the search's memory pass
// relies on when it validates a segment's shape once, at its root: every
// root Segments yields, over random small models and options, passes
// ValidateShape. A leaf of the segment has the root's shape fields, so with
// TestLatticeBulkInvariants (every leaf passes the toggle rules) every leaf
// of every segment is a valid strategy.
func TestSegmentRootsPassValidateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	roots := 0
	for i := 0; i < 300; i++ {
		m := model.MustPreset("gpt3-13B")
		m.Blocks = 1 + rng.Intn(96)
		m.AttnHeads = 1 + rng.Intn(64)
		m = m.WithBatch(1 + rng.Intn(192))
		o := EnumOptions{
			Procs:         1 + rng.Intn(96),
			MaxTP:         []int{0, 0, 2, 8}[rng.Intn(4)],
			MaxInterleave: []int{0, 0, 1, 2, 3, 6}[rng.Intn(6)],
			PinBeneficial: rng.Intn(2) == 0,
		}
		for _, tpd := range o.Triples(m) {
			o.Segments(&m, tpd, func(st *Strategy) bool {
				roots++
				if err := st.ValidateShape(&m); err != nil {
					t.Fatalf("draw %d (blocks %d heads %d batch %d): root %v: %v", i, m.Blocks, m.AttnHeads, m.Batch, st, err)
				}
				return true
			})
		}
	}
	if roots == 0 {
		t.Fatal("no root checked")
	}
}
