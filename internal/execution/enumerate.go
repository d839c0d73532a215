package execution

import (
	"fmt"

	"calculon/internal/model"
)

// FeatureSet names a family of allowed optimizations, mirroring the paper's
// study variants (Fig. 5): the original Megatron set, the sequence-parallel
// set, and the full Table 1 space.
type FeatureSet string

const (
	// FeatureBaseline is the original Megatron optimization set [29]:
	// microbatching, 1F1B, interleaving, full-or-no recompute, TP RS+AG.
	FeatureBaseline FeatureSet = "baseline"
	// FeatureSeqPar adds sequence parallelism with selective (attention)
	// recompute and TP-redo [20].
	FeatureSeqPar FeatureSet = "seqpar"
	// FeatureAll is every compatible technique from Table 1: optimizer
	// sharding, TP/DP communication overlap, fused layers, PP RS+AG, and —
	// when the system has a second memory tier — tensor offloading.
	FeatureAll FeatureSet = "all"
)

// Valid reports whether the set is one of the defined constants.
func (f FeatureSet) Valid() bool {
	switch f {
	case FeatureBaseline, FeatureSeqPar, FeatureAll:
		return true
	}
	return false
}

// EnumOptions bounds strategy enumeration.
type EnumOptions struct {
	// Procs is the exact number of processors every strategy must occupy.
	Procs int
	// Features selects which optimization toggles are explored.
	Features FeatureSet
	// HasMem2 permits the offload switches.
	HasMem2 bool
	// MaxTP caps the tensor-parallel degree (e.g. 32 in §4.1 where the
	// NVLink domain is stretched to the TP degree). Zero means no cap
	// beyond the model's head count.
	MaxTP int
	// MaxInterleave caps the interleaving factor explored. Zero means up to
	// the per-processor block count (divisor values only).
	MaxInterleave int
	// FixedTP/FixedPP/FixedDP pin a degree when nonzero (grid studies).
	FixedTP, FixedPP, FixedDP int
	// MicrobatchDivisorsOnly restricts m to divisors of the per-pipeline
	// batch; this is always true (non-divisors are infeasible) and the field
	// exists for documentation.
	MicrobatchDivisorsOnly bool
	// PinBeneficial fixes the toggles that are monotonically beneficial
	// under the performance model (1F1B, fused layers, DP overlap, ring TP
	// overlap, optimizer sharding) instead of enumerating both settings.
	// This shrinks large sweeps by ~50× without changing the optimum; the
	// non-monotone trade-offs (recompute, sequence parallelism, offload,
	// microbatch, interleaving) are still explored exhaustively.
	PinBeneficial bool
}

// divisors returns the sorted divisors of n.
func divisors(n int) []int {
	var small, large []int
	for i := 1; i*i <= n; i++ {
		if n%i == 0 {
			small = append(small, i)
			if j := n / i; j != i {
				large = append(large, j)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// Triples enumerates every (t,p,d) with t·p·d = procs that satisfies the
// model's structural constraints: t ≤ heads (and ≤ MaxTP when set),
// p ≤ blocks, d | batch. Degrees pinned in the options are respected.
func (o EnumOptions) Triples(m model.LLM) [][3]int {
	var out [][3]int
	maxTP := m.AttnHeads
	if o.MaxTP > 0 && o.MaxTP < maxTP {
		maxTP = o.MaxTP
	}
	for _, t := range divisors(o.Procs) {
		if t > maxTP || (o.FixedTP != 0 && t != o.FixedTP) {
			continue
		}
		rest := o.Procs / t
		for _, p := range divisors(rest) {
			if p > m.Blocks || (o.FixedPP != 0 && p != o.FixedPP) {
				continue
			}
			d := rest / p
			if d > m.Batch || m.Batch%d != 0 {
				continue
			}
			if o.FixedDP != 0 && d != o.FixedDP {
				continue
			}
			out = append(out, [3]int{t, p, d})
		}
	}
	return out
}

// Enumerate streams every strategy permitted by the options for the given
// model through yield; returning false from yield stops the enumeration.
// The count of generated strategies is returned.
func (o EnumOptions) Enumerate(m model.LLM, yield func(Strategy) bool) int {
	count := 0
	for _, tpd := range o.Triples(m) {
		n, more := o.EnumerateTriple(m, tpd, yield)
		count += n
		if !more {
			break
		}
	}
	return count
}

// EnumerateTriple streams every strategy of one (t,p,d) subtree through
// yield, in the same order Enumerate visits them. It returns the number of
// strategies generated and whether the subtree ran to completion (false when
// yield stopped it). The triple must come from Triples — the structural
// constraints are not re-checked here.
//
// The subtree is its segments (Segments) in order, each walked through the
// toggle lattice (Toggles.Walk); the parallel search hands whole segments to
// its workers and walks them there, in this same order.
func (o EnumOptions) EnumerateTriple(m model.LLM, tpd [3]int, yield func(Strategy) bool) (int, bool) {
	count := 0
	tog := o.Toggles()
	more := o.Segments(&m, tpd, func(root *Strategy) bool {
		return tog.Walk(root, func(s *Strategy, _ FieldMask) bool {
			count++
			return yield(*s)
		})
	})
	return count, more
}

// Segments streams the roots of the (t,p,d) subtree's segments through
// yield, in enumeration order, and reports whether it ran to completion. A
// segment fixes everything but the toggles — the triple, the microbatch,
// and the pipeline schedule — and holds the Toggles().Len() strategies
// Toggles.Walk visits from its root. The root's toggle fields are
// unspecified (the walk overwrites them all), and the root is only valid
// until yield returns.
func (o EnumOptions) Segments(m *model.LLM, tpd [3]int, yield func(*Strategy) bool) bool {
	s := Strategy{TP: tpd[0], PP: tpd[1], DP: tpd[2]}
	interleaves := divisors(s.BlocksPerProc(m))
	for _, mb := range divisors(m.Batch / tpd[2]) {
		s.Microbatch = mb
		if !o.forEachSchedule(&s, interleaves, yield) {
			return false
		}
	}
	return true
}

// TripleLeafCount returns, in closed form, the number of strategies
// EnumerateTriple generates for the (t,p,d) subtree: its segment count
// times the toggle combinations per segment. The lattice-pruned search uses
// it to keep the Evaluated/PreScreened counters and the ETA total exact
// without materializing pruned subtrees; TestLatticeCountsConsistent pins
// the equality against the enumerator.
func (o EnumOptions) TripleLeafCount(m model.LLM, tpd [3]int) int {
	tog := o.Toggles()
	return o.tripleSegments(&m, tpd) * tog.Len()
}

// tripleSegments returns, in closed form, the number of segments Segments
// yields for the (t,p,d) subtree: the microbatch divisor count times the
// schedule variants.
func (o EnumOptions) tripleSegments(m *model.LLM, tpd [3]int) int {
	mbs := len(divisors(m.Batch / tpd[2]))
	sched := 0
	if !o.PinBeneficial {
		sched++ // the plain GPipe-like schedule
	}
	if tpd[1] == 1 {
		sched++ // interleaving is meaningless without pipeline parallelism
	} else {
		bp := (m.Blocks + tpd[1] - 1) / tpd[1]
		for _, v := range divisors(bp) {
			if o.MaxInterleave > 0 && v > o.MaxInterleave {
				break
			}
			sched++
		}
	}
	return mbs * sched
}

// boundLeaves returns one representative strategy per distinct pre-screen
// verdict in the (t,p,d) subtree. PreScreen.Check reads only the parallelism
// degrees and the WeightOffload/OptimOffload/OptimSharding/DPOverlap
// switches (ActOffload reaches only the tier-presence check, which the
// offload projections cover), so projecting the toggle lattice onto those
// switches covers every leaf's verdict.
func (o EnumOptions) boundLeaves(tpd [3]int) []Strategy {
	tog := o.Toggles()
	offs := bools[:1]
	if len(tog.offloads) > 1 {
		offs = bools
	}
	out := make([]Strategy, 0, len(offs)*len(offs)*len(tog.shards)*len(tog.dpOverlaps))
	for _, w := range offs {
		for _, oo := range offs {
			for _, sh := range tog.shards {
				for _, dov := range tog.dpOverlaps {
					out = append(out, Strategy{
						TP: tpd[0], PP: tpd[1], DP: tpd[2],
						Microbatch: 1, Interleave: 1,
						Recompute: RecomputeNone, TPOverlap: TPOverlapNone,
						WeightOffload: w, OptimOffload: oo,
						OptimSharding: sh, DPOverlap: dov,
					})
				}
			}
		}
	}
	return out
}

// forEachSchedule enumerates pipeline schedule variants (1F1B on/off,
// interleave factors among the divisors of the per-proc block count) of s,
// yielding s itself with the schedule fields set.
func (o EnumOptions) forEachSchedule(s *Strategy, interleaves []int, yield func(*Strategy) bool) bool {
	if !o.PinBeneficial {
		// Plain GPipe-like schedule (only sensible without interleaving).
		s.OneFOneB = false
		s.Interleave = 1
		if !yield(s) {
			return false
		}
	}
	// 1F1B with every divisor interleaving of the per-proc block count.
	for _, v := range interleaves {
		if o.MaxInterleave > 0 && v > o.MaxInterleave {
			break
		}
		if v > 1 && s.PP == 1 {
			break
		}
		s.OneFOneB = true
		s.Interleave = v
		if !yield(s) {
			return false
		}
	}
	return true
}

type commCombo struct {
	rsag, sp, redo, pprsag bool
}

// The values each toggle dimension takes, per feature set. Toggles slices
// these fixed tables, so building a lattice allocates nothing.
var (
	recomputesBaseline = []RecomputeMode{RecomputeNone, RecomputeFull}
	recomputesAll      = []RecomputeMode{RecomputeNone, RecomputeAttn, RecomputeFull}
	commsBaseline      = []commCombo{{}, {rsag: true}}
	commsSeqPar        = []commCombo{
		{}, {rsag: true},
		{rsag: true, sp: true}, {rsag: true, sp: true, redo: true},
	}
	commsAll = []commCombo{
		{}, {rsag: true}, {rsag: true, pprsag: true},
		{rsag: true, sp: true}, {rsag: true, sp: true, redo: true},
		{rsag: true, sp: true, pprsag: true}, {rsag: true, sp: true, redo: true, pprsag: true},
	}
	tpOverlapsAll = []TPOverlapMode{TPOverlapNone, TPOverlapPipe, TPOverlapRing}
	bools         = []bool{false, true}
	// offloadsGray is the 3-bit reflected Gray sequence over (weights,
	// activations, optimizer): one switch flips per step.
	offloadsGray = [][3]bool{
		{false, false, false}, {false, false, true},
		{false, true, true}, {false, true, false},
		{true, true, false}, {true, true, true},
		{true, false, true}, {true, false, false},
	}
)

// Toggles is the lattice of optimization switches one segment spans under
// some EnumOptions: every combination consistent with the feature set and
// the validation rules. It depends only on the options, never on the
// segment.
type Toggles struct {
	recomputes []RecomputeMode
	comms      []commCombo
	tpOverlaps []TPOverlapMode
	dpOverlaps []bool
	shards     []bool
	fused      []bool
	offloads   [][3]bool
}

// Toggles returns the options' toggle lattice.
func (o EnumOptions) Toggles() Toggles {
	t := Toggles{
		recomputes: recomputesBaseline,
		comms:      commsBaseline,
		tpOverlaps: tpOverlapsAll[:1],
		dpOverlaps: bools[:1],
		shards:     bools[:1],
		fused:      bools[:1],
		offloads:   offloadsGray[:1],
	}
	switch o.Features {
	case FeatureBaseline:
	case FeatureSeqPar:
		t.recomputes, t.comms = recomputesAll, commsSeqPar
	default: // FeatureAll
		t.recomputes, t.comms = recomputesAll, commsAll
		t.tpOverlaps, t.dpOverlaps, t.shards, t.fused = tpOverlapsAll, bools, bools, bools
		if o.HasMem2 {
			t.offloads = offloadsGray
		}
	}
	if o.PinBeneficial {
		t.tpOverlaps = t.tpOverlaps[len(t.tpOverlaps)-1:]
		t.dpOverlaps = t.dpOverlaps[len(t.dpOverlaps)-1:]
		t.shards = t.shards[len(t.shards)-1:]
		t.fused = t.fused[len(t.fused)-1:]
	}
	return t
}

func (t *Toggles) sizes() [7]int {
	return [7]int{
		len(t.recomputes), len(t.comms), len(t.tpOverlaps), len(t.dpOverlaps),
		len(t.shards), len(t.fused), len(t.offloads),
	}
}

// Len returns the number of strategies in one segment: the product of the
// dimension sizes.
func (t *Toggles) Len() int {
	n := 1
	for _, k := range t.sizes() {
		n *= k
	}
	return n
}

// Walk visits every toggle combination of the segment rooted at st,
// writing st's toggle fields in place before each yield — no strategy is
// copied — and reports whether the walk ran to completion (false when
// yield stopped it). The other fields of st are left as they are, and yield
// must leave the toggle fields as it found them.
//
// The walk is a reflected mixed-radix Gray code over the toggle dimensions
// (recompute, comm combo, TP overlap, DP overlap, optimizer sharding, fused
// layers, offload combo): instead of restarting every inner dimension when
// an outer one advances, each dimension sweeps alternately up and down, so
// two successive strategies always differ in exactly one dimension. The
// offload dimension is itself a 3-bit Gray sequence, so successive offload
// combos flip a single switch. Each yield carries the fields changed since
// the previous leaf (their DiffMask; AllFields on the first), which delta
// evaluation (perf.Runner.RunLeaf) takes as is: the fewer toggles change
// between neighbors, the more terms carry over unrecomputed. Every
// combination is still emitted exactly once; only the order differs from a
// plain nested loop. The order is part of the deterministic tie-break
// sequence, so changing it is a strategy-space version bump (resultstore).
func (t *Toggles) Walk(st *Strategy, yield func(*Strategy, FieldMask) bool) bool {
	sizes := t.sizes()
	var idx [7]int
	dir := [7]int{1, 1, 1, 1, 1, 1, 1}
	for d := range idx {
		t.set(st, d, 0)
	}
	for mask := AllFields; yield(st, mask); {
		// Advance the deepest dimension that can still move in its current
		// direction, reflecting (reversing) every deeper one that cannot.
		// When no dimension can move, the space is exhausted.
		i := len(idx) - 1
		for i >= 0 {
			next := idx[i] + dir[i]
			if next >= 0 && next < sizes[i] {
				idx[i] = next
				break
			}
			dir[i] = -dir[i]
			i--
		}
		if i < 0 {
			return true
		}
		mask = t.set(st, i, idx[i])
	}
	return false
}

// set writes value j of toggle dimension d into st and returns the fields
// that changed.
func (t *Toggles) set(st *Strategy, d, j int) FieldMask {
	switch d {
	case 0:
		return flip(&st.Recompute, t.recomputes[j], FieldRecompute)
	case 1:
		c := &t.comms[j]
		return flip(&st.TPRSAG, c.rsag, FieldTPRSAG) | flip(&st.SeqParallel, c.sp, FieldSeqParallel) |
			flip(&st.TPRedoForSP, c.redo, FieldTPRedoForSP) | flip(&st.PPRSAG, c.pprsag, FieldPPRSAG)
	case 2:
		return flip(&st.TPOverlap, t.tpOverlaps[j], FieldTPOverlap)
	case 3:
		return flip(&st.DPOverlap, t.dpOverlaps[j], FieldDPOverlap)
	case 4:
		return flip(&st.OptimSharding, t.shards[j], FieldOptimSharding)
	case 5:
		return flip(&st.FusedLayers, t.fused[j], FieldFusedLayers)
	default:
		o := &t.offloads[j]
		return flip(&st.WeightOffload, o[0], FieldWeightOffload) | flip(&st.ActOffload, o[1], FieldActOffload) |
			flip(&st.OptimOffload, o[2], FieldOptimOffload)
	}
}

// flip sets *f to v and returns bit if that changed it.
func flip[T comparable](f *T, v T, bit FieldMask) (m FieldMask) {
	if *f != v {
		m = bit
	}
	*f = v
	return m
}

// SpaceSize counts the strategies Enumerate would generate without invoking
// a consumer, for reporting search-space sizes as in Fig. 6 and pre-counting
// ETA totals. It is closed-form — the per-triple leaf counts summed over the
// lattice — so it costs divisor arithmetic, not an enumeration pass;
// TestLatticeCountsConsistent pins it against the enumerator.
func (o EnumOptions) SpaceSize(m model.LLM) int {
	segs := 0
	for _, tpd := range o.Triples(m) {
		segs += o.tripleSegments(&m, tpd)
	}
	tog := o.Toggles()
	return segs * tog.Len()
}

// Validate checks the options themselves.
func (o EnumOptions) Validate() error {
	if o.Procs <= 0 {
		return fmt.Errorf("execution: enum procs must be positive, got %d", o.Procs)
	}
	if o.Features != "" && !o.Features.Valid() {
		return fmt.Errorf("execution: bad feature set %q", o.Features)
	}
	return nil
}
