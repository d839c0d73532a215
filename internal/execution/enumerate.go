package execution

import (
	"fmt"
	"slices"

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

// eachDivisor calls yield with the divisors of n in ascending order until
// yield returns false, and reports whether it ran to completion. It pairs
// each divisor i ≤ √n with n/i, walking i up for the small ones and back
// down for the large ones, so it allocates nothing.
func eachDivisor(n int, yield func(int) bool) bool {
	i := 1
	for ; i*i < n; i++ {
		if n%i == 0 && !yield(i) {
			return false
		}
	}
	if i*i > n {
		i--
	}
	for ; i >= 1; i-- {
		if n%i == 0 && !yield(n/i) {
			return false
		}
	}
	return true
}

// countDivisors returns how many divisors of n are at most limit (all of
// them when limit ≤ 0).
func countDivisors(n, limit int) int {
	c := 0
	eachDivisor(n, func(d int) bool {
		if limit > 0 && d > limit {
			return false
		}
		c++
		return true
	})
	return c
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
	eachDivisor(o.Procs, func(t int) bool {
		if t > maxTP {
			return false // the divisors ascend
		}
		if o.FixedTP != 0 && t != o.FixedTP {
			return true
		}
		rest := o.Procs / t
		eachDivisor(rest, func(p int) bool {
			if p > m.Blocks {
				return false
			}
			d := rest / p
			if (o.FixedPP == 0 || p == o.FixedPP) && d <= m.Batch && m.Batch%d == 0 &&
				(o.FixedDP == 0 || d == o.FixedDP) {
				out = append(out, [3]int{t, p, d})
			}
			return true
		})
		return true
	})
	return out
}

// Enumerate streams every strategy permitted by the options for the given
// model through yield; returning false from yield stops the enumeration.
// The count of generated strategies is returned.
//
// No search calls it: the search walks segments class by class on its
// workers. It is kept as the tests' oracle, the plain leaf-by-leaf listing
// of the space that the closed-form counts (SpaceSize, TripleLeafCount),
// the segment walks, ClassLeaves and the reference searches are checked
// against.
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
// toggle lattice (Toggles.Walk); the parallel search's workers walk the same
// segments, a microbatch row at a time, in this same order.
func (o EnumOptions) EnumerateTriple(m model.LLM, tpd [3]int, yield func(Strategy) bool) (int, bool) {
	count := 0
	tog := o.Toggles()
	more := o.Segments(&m, tpd, func(root *Strategy) bool {
		return tog.Walk(root, func(s *Strategy) bool {
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
// Toggles.Walk visits from its root. The subtree is its microbatch rows
// (MicrobatchSegments) in the order Microbatches lists them.
func (o EnumOptions) Segments(m *model.LLM, tpd [3]int, yield func(*Strategy) bool) bool {
	var s Strategy
	return o.Microbatches(m, tpd, func(mb int) bool {
		return o.MicrobatchSegments(m, tpd, mb, &s, yield)
	})
}

// Microbatches calls yield with the microbatch sizes of the (t,p,d)
// subtree's rows — the divisors of the per-pipeline batch — in enumeration
// order (ascending) until yield returns false, and reports whether it ran to
// completion. It allocates nothing.
func (o EnumOptions) Microbatches(m *model.LLM, tpd [3]int, yield func(mb int) bool) bool {
	return eachDivisor(m.Batch/tpd[2], yield)
}

// MicrobatchSegments streams the roots of the segments of the (t,p,d)
// subtree's row of microbatch size mb (one of Microbatches) through yield,
// in enumeration order, writing each into *st with every toggle field zero,
// and reports whether it ran to completion. It allocates nothing.
func (o EnumOptions) MicrobatchSegments(m *model.LLM, tpd [3]int, mb int, st *Strategy, yield func(*Strategy) bool) bool {
	bp := (m.Blocks + tpd[1] - 1) / tpd[1] // BlocksPerProc
	schedule := func(oneFOneB bool, v int) bool {
		*st = Strategy{TP: tpd[0], PP: tpd[1], DP: tpd[2], Microbatch: mb, OneFOneB: oneFOneB, Interleave: v}
		return yield(st)
	}
	// The plain GPipe-like schedule, only sensible without interleaving.
	if !o.PinBeneficial && !schedule(false, 1) {
		return false
	}
	// 1F1B with every divisor interleaving of the per-proc block count.
	more := true
	eachDivisor(bp, func(v int) bool {
		if o.MaxInterleave > 0 && v > o.MaxInterleave || v > 1 && tpd[1] == 1 {
			return false // the divisors ascend
		}
		more = schedule(true, v)
		return more
	})
	return more
}

// TripleLeafCount returns, in closed form, the number of strategies
// EnumerateTriple generates for the (t,p,d) subtree: its segment count
// times the toggle combinations per segment. The lattice-pruned search uses
// it to keep the Evaluated/PreScreened counters and the ETA total exact
// without materializing pruned subtrees; TestLatticeCountsConsistent pins
// the equality against the enumerator.
func (o EnumOptions) TripleLeafCount(m model.LLM, tpd [3]int) int {
	tog := o.Toggles()
	mbs, scheds := o.TripleShape(&m, tpd)
	return mbs * scheds * tog.Len()
}

// TripleShape returns, in closed form, the shape of the (t,p,d) subtree's
// segments: the number of microbatch rows — the divisors of the
// per-pipeline batch — and the segments of each row, its pipeline schedule
// variants. Segments yields their product.
func (o EnumOptions) TripleShape(m *model.LLM, tpd [3]int) (microbatches, schedules int) {
	if !o.PinBeneficial {
		schedules++ // the plain GPipe-like schedule
	}
	if tpd[1] == 1 {
		schedules++ // interleaving is meaningless without pipeline parallelism
	} else {
		schedules += countDivisors((m.Blocks+tpd[1]-1)/tpd[1], o.MaxInterleave)
	}
	return countDivisors(m.Batch/tpd[2], 0), schedules
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
	// The comm combos of each set grouped by their (SeqParallel,
	// TPRedoForSP) pair, as indices into its table: the RS+AG completions a
	// memory class allows, neighbours one switch apart. The groups' first
	// entries differ at most in TPRSAG and their last ones not at all.
	projsBaseline = [][]int{{0, 1}}
	projsSeqPar   = [][]int{{0, 1}, {2}, {3}}
	projsAll      = [][]int{{0, 1, 2}, {3, 5}, {4, 6}}
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
	projs      [][]int // comms indices per (SeqParallel, TPRedoForSP) pair
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
		projs:      projsBaseline,
		tpOverlaps: tpOverlapsAll[:1],
		dpOverlaps: bools[:1],
		shards:     bools[:1],
		fused:      bools[:1],
		offloads:   offloadsGray[:1],
	}
	switch o.Features {
	case FeatureBaseline:
	case FeatureSeqPar:
		t.recomputes, t.comms, t.projs = recomputesAll, commsSeqPar, projsSeqPar
	default: // FeatureAll
		t.recomputes, t.comms, t.projs = recomputesAll, commsAll, projsAll
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

// BlockSwitches calls yield with st's block switches — the recompute mode,
// the (SeqParallel, TPRedoForSP) pair and fused layers, the toggles that
// pick a block profile — set to each combination the lattice holds. The
// other fields of st are left as they are.
func (t *Toggles) BlockSwitches(st *Strategy, yield func(*Strategy)) {
	for _, r := range t.recomputes {
		for _, p := range t.projs {
			c := &t.comms[p[0]]
			for _, f := range t.fused {
				st.Recompute, st.SeqParallel, st.TPRedoForSP, st.FusedLayers = r, c.sp, c.redo, f
				yield(st)
			}
		}
	}
}

// ScreenSwitches calls yield with st's screen switches — the three
// offloads, optimizer sharding and DP overlap, the toggles PreScreen.Check
// reads — set to each combination the lattice holds, and returns how many
// of a segment's leaves share each combination: the lattice is a product,
// so every combination holds the same number. The other fields of st are
// left as they are.
func (t *Toggles) ScreenSwitches(st *Strategy, yield func(*Strategy)) int {
	n := t.screenCombos()
	for i := 0; i < n; i++ {
		t.setScreen(st, i)
		yield(st)
	}
	return t.Len() / n
}

// screenCombos returns the number of screen switch combinations the
// lattice holds.
func (t *Toggles) screenCombos() int {
	return len(t.offloads) * len(t.shards) * len(t.dpOverlaps)
}

// setScreen sets st's screen switches to the lattice's i-th combination:
// the offloads vary slowest, then optimizer sharding, then DP overlap.
func (t *Toggles) setScreen(st *Strategy, i int) {
	nd, ns := len(t.dpOverlaps), len(t.shards)
	o := t.offloads[i/(nd*ns)]
	st.WeightOffload, st.ActOffload, st.OptimOffload = o[0], o[1], o[2]
	st.OptimSharding, st.DPOverlap = t.shards[i/nd%ns], t.dpOverlaps[i%nd]
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
// combos flip a single switch. Each combination is emitted once. The order defines sequence numbers: a leaf's
// seq is its segment's base plus its Gray rank, its position here, which
// breaks ties and names the leaf in shard splits and store keys, so
// changing the order is a strategy-space version bump (resultstore). A
// search may visit leaves in any order: the parallel search walks class by
// class (ClassLeaves), which yields each leaf's rank.
func (t *Toggles) Walk(st *Strategy, yield func(*Strategy) bool) bool {
	sizes := t.sizes()
	g := gray{dir: [7]int{1, 1, 1, 1, 1, 1, 1}}
	for d, k := range sizes {
		g.n[d] = k
		t.set(st, d, 0)
	}
	for yield(st) {
		d := g.advance(0, len(sizes)-1)
		if d < 0 {
			return true
		}
		t.set(st, d, g.idx[d])
	}
	return false
}

// gray is a reflected mixed-radix Gray counter: each dimension's value,
// sweep direction (±1) and number of values.
type gray struct{ idx, dir, n [7]int }

// advance takes one step over dimensions lo..hi and returns the one that
// moved: the deepest that can still move in its direction, every deeper one
// reversing. It returns -1, having reversed them all, when none can move.
func (g *gray) advance(lo, hi int) int {
	for d := hi; d >= lo; d-- {
		if next := g.idx[d] + g.dir[d]; next >= 0 && next < g.n[d] {
			g.idx[d] = next
			return d
		}
		g.dir[d] = -g.dir[d]
	}
	return -1
}

// set writes value j of toggle dimension d into st.
func (t *Toggles) set(st *Strategy, d, j int) {
	switch d {
	case 0:
		st.Recompute = t.recomputes[j]
	case 1:
		c := &t.comms[j]
		st.TPRSAG, st.SeqParallel, st.TPRedoForSP, st.PPRSAG = c.rsag, c.sp, c.redo, c.pprsag
	case 2:
		st.TPOverlap = t.tpOverlaps[j]
	case 3:
		st.DPOverlap = t.dpOverlaps[j]
	case 4:
		st.OptimSharding = t.shards[j]
	case 5:
		st.FusedLayers = t.fused[j]
	default:
		o := &t.offloads[j]
		st.WeightOffload, st.ActOffload, st.OptimOffload = o[0], o[1], o[2]
	}
}

// rank returns the position in Walk's order of the leaf whose dimension
// values are g: the Gray code read back. Dimension d sweeps upward exactly
// when the dimensions before it have taken an even number of steps, which
// is their own rank.
func (t *Toggles) rank(g [7]int) int {
	r := 0
	for d, k := range t.sizes() {
		if r%2 == 1 {
			g[d] = k - 1 - g[d]
		}
		r = r*k + g[d]
	}
	return r
}

// SameClass reports whether a and b are leaves of one memory class: they
// differ at most in the fields ClassLeaves writes, the TP and PP RS+AG
// switches and the TP overlap mode. Every other field, a future one
// included, is part of the class.
func SameClass(a, b *Strategy) bool {
	c := *b
	c.TPRSAG, c.PPRSAG, c.TPOverlap = a.TPRSAG, a.PPRSAG, a.TPOverlap
	return c == *a
}

// ClassLeaves walks the memory class st stands in: the leaves SameClass
// puts with st, the TP overlap modes times the RS+AG completions its
// (SeqParallel, TPRedoForSP) pair allows. It writes each leaf's variant
// fields into st in place, successive leaves one field apart, yields the
// leaf's rank, its position in Walk's order, and reports whether the walk
// ran to completion (false when yield stopped it). st's other toggles must
// hold values of the lattice. It allocates nothing.
func (t *Toggles) ClassLeaves(st *Strategy, yield func(rank int) bool) bool {
	g := [7]int{
		slices.Index(t.recomputes, st.Recompute), 0, 0,
		slices.Index(t.dpOverlaps, st.DPOverlap), slices.Index(t.shards, st.OptimSharding),
		slices.Index(t.fused, st.FusedLayers),
		slices.Index(t.offloads, [3]bool{st.WeightOffload, st.ActOffload, st.OptimOffload}),
	}
	var compl []int
	for _, p := range t.projs {
		if c := &t.comms[p[0]]; c.sp == st.SeqParallel && c.redo == st.TPRedoForSP {
			compl = p
		}
	}
	for i, o := range t.tpOverlaps {
		st.TPOverlap, g[2] = o, i
		for j := range compl {
			if i%2 == 1 {
				j = len(compl) - 1 - j // the completions sweep back and forth
			}
			g[1] = compl[j]
			t.set(st, 1, g[1])
			if !yield(t.rank(g)) {
				return false
			}
		}
	}
	return true
}

// SpaceSize counts the strategies Enumerate would generate without invoking
// a consumer, for reporting search-space sizes as in Fig. 6 and pre-counting
// ETA totals. It is closed-form — the per-triple leaf counts summed over the
// lattice — so it costs divisor arithmetic, not an enumeration pass;
// TestLatticeCountsConsistent pins it against the enumerator.
func (o EnumOptions) SpaceSize(m model.LLM) int {
	return o.LeafCount(m, o.Triples(m))
}

// LeafCount returns, in closed form, the number of strategies the (t,p,d)
// subtrees hold: their TripleLeafCount summed, on one toggle lattice.
func (o EnumOptions) LeafCount(m model.LLM, triples [][3]int) int {
	tog := o.Toggles()
	n := 0
	for _, tpd := range triples {
		mbs, scheds := o.TripleShape(&m, tpd)
		n += mbs * scheds
	}
	return n * tog.Len()
}

// Validate checks the options themselves.
func (o EnumOptions) Validate() error {
	if o.Procs <= 0 {
		return fmt.Errorf("execution: enum procs must be positive, got %d", o.Procs)
	}
	if o.Features != "" && !o.Features.Valid() {
		return fmt.Errorf("execution: bad feature set %q", o.Features)
	}
	// A negative cap or pin would enumerate like zero (no cap, no pin) under
	// a different store key, so it is rejected instead.
	for _, c := range [...]struct {
		name string
		v    int
	}{
		{"max TP", o.MaxTP}, {"max interleave", o.MaxInterleave},
		{"fixed TP", o.FixedTP}, {"fixed PP", o.FixedPP}, {"fixed DP", o.FixedDP},
	} {
		if c.v < 0 {
			return fmt.Errorf("execution: negative %s %d", c.name, c.v)
		}
	}
	return nil
}
