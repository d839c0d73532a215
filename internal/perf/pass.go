package perf

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"calculon/internal/execution"
	"calculon/internal/units"
)

// MaxSlots is the most block-switch combinations, profile slots, a toggle
// lattice holds: three recompute modes, three (SeqParallel, TPRedoForSP)
// pairs and fused layers on or off.
const MaxSlots = 18

// SegmentLattice is what the segment pass (Runner.PassSegment) reads off one
// toggle lattice. A memory class of a segment is one combination of the
// block switches — the recompute mode, the (SeqParallel, TPRedoForSP) pair
// and fused layers, which pick a profile slot — with one of the screen
// switches (the three offloads, optimizer sharding and DP overlap), and its
// leaves are the variant-field completions of its pair. The three memory
// rows read the screen switches through few of them: the weight row
// WeightOffload, OptimSharding and DPOverlap; the optimizer row
// OptimSharding and OptimOffload; the activation row ActOffload. So the
// lattice lists the distinct inputs of each row once. A lattice depends only
// on the feature set, the second tier and PinBeneficial, so LatticeFor
// builds each of the twelve once per process.
type SegmentLattice struct {
	slots  []latticeSlot // graph slot major, so rows that read only the graph run once per graph
	slotOf [profileSlots]int8
	// reach has bit i set when the lattice reaches profile slot i, and
	// saving the screen switches any combination turns on: the segment
	// floor's inputs (mem1Floor).
	reach  uint64
	saving uint32
	// screens are the lattice's screen switch combinations (screenBits),
	// each holding perScreen of a segment's Len leaves; screenOf indexes
	// them by their bits.
	screens        []uint32
	screenOf       [32]uint8
	perScreen, len int
	// The distinct inputs of the three memory rows, as screen bits with
	// every other switch off, and the index of each combination's. The
	// optimizer row's switches are also the optimizer step's.
	weightRows, optimRows, actRows []uint32
	weightOf, optimOf, actOf       [32]uint8
	// The same for the two time rows the class floor reads beyond the
	// optimizer step (Runner.PassFloors): the data-parallel exposure and
	// the offload transfers.
	dataRows, xferRows []uint32
	dataOf, xferOf     [32]uint8
}

// latticeSlot is one block-switch combination of a lattice: its profile
// slot (slotFor, training), the switches, and how many leaves each of its
// classes holds.
type latticeSlot struct {
	profile   uint32
	recompute execution.RecomputeMode
	sp, redo  bool
	fused     bool
	leaves    int
}

// set writes the slot's block switches into st.
func (ls *latticeSlot) set(st *execution.Strategy) {
	st.Recompute, st.SeqParallel, st.TPRedoForSP, st.FusedLayers = ls.recompute, ls.sp, ls.redo, ls.fused
}

// The weight, optimizer and activation rows' screen switches, as screenBits
// packs them, and those of the data-parallel exposure (dataComm) and the
// offload transfers (offload).
const (
	weightScreenBits = 1 | 1<<3 | 1<<4
	optimScreenBits  = 1<<2 | 1<<3
	actScreenBits    = 1 << 1
	dataScreenBits   = 1<<3 | 1<<4
	xferScreenBits   = 1 | 1<<1 | 1<<2 | 1<<3
)

var lattices [3][2][2]struct {
	once sync.Once
	l    SegmentLattice
}

// LatticeFor returns the segment lattice of the options' toggles
// (EnumOptions.Toggles), built on first use and shared by every search.
func LatticeFor(o *execution.EnumOptions) *SegmentLattice {
	f := 2 // FeatureAll, and the empty set a search fills with it
	switch o.Features {
	case execution.FeatureBaseline:
		f = 0
	case execution.FeatureSeqPar:
		f = 1
	}
	e := &lattices[f][b2u(o.HasMem2)][b2u(o.PinBeneficial)]
	e.once.Do(func() {
		tog := o.Toggles()
		e.l = newSegmentLattice(&tog)
	})
	return &e.l
}

// newSegmentLattice reads a lattice off its toggles: the block switch
// combinations (Toggles.BlockSwitches), the screen switch combinations
// (Toggles.ScreenSwitches), and the leaves of each slot's classes
// (Toggles.ClassLeaves).
func newSegmentLattice(tog *execution.Toggles) SegmentLattice {
	l := SegmentLattice{len: tog.Len()}
	var st execution.Strategy
	tog.BlockSwitches(&st, func(s *execution.Strategy) {
		l.slots = append(l.slots, latticeSlot{profile: slotFor(s), recompute: s.Recompute,
			sp: s.SeqParallel, redo: s.TPRedoForSP, fused: s.FusedLayers})
	})
	// Graph slot major: the slots of one priced graph are adjacent.
	slices.SortFunc(l.slots, func(a, b latticeSlot) int {
		return int(a.profile%graphSlots*4+a.profile/graphSlots) - int(b.profile%graphSlots*4+b.profile/graphSlots)
	})
	for i := range l.slotOf {
		l.slotOf[i] = -1
	}
	for i := range l.slots {
		l.slotOf[l.slots[i].profile] = int8(i)
		l.reach |= 1 << l.slots[i].profile
	}
	l.perScreen = tog.ScreenSwitches(&st, func(s *execution.Strategy) {
		b := screenBits(s)
		l.screenOf[b] = uint8(len(l.screens))
		l.screens = append(l.screens, b)
		l.saving |= b
		l.weightOf[b] = rowIndex(&l.weightRows, b&weightScreenBits)
		l.optimOf[b] = rowIndex(&l.optimRows, b&optimScreenBits)
		l.actOf[b] = rowIndex(&l.actRows, b&actScreenBits)
		l.dataOf[b] = rowIndex(&l.dataRows, b&dataScreenBits)
		l.xferOf[b] = rowIndex(&l.xferRows, b&xferScreenBits)
	})
	for i := range l.slots {
		ls := &l.slots[i]
		ls.set(&st)
		tog.ClassLeaves(&st, func(int) bool {
			ls.leaves++
			return true
		})
	}
	return l
}

// rowIndex returns the index of key in *rows, appending it if absent.
func rowIndex(rows *[]uint32, key uint32) uint8 {
	if i := slices.Index(*rows, key); i >= 0 {
		return uint8(i)
	}
	*rows = append(*rows, key)
	return uint8(len(*rows) - 1)
}

// Slots returns the number of block-switch combinations, the profile slots
// a segment reads.
func (l *SegmentLattice) Slots() int { return len(l.slots) }

// SegmentPass is one segment's memory verdicts, every class at once, as
// Runner.PassSegment fills it: the leaf counts of the segment, and per
// profile slot the classes that fit with their exact first- and
// second-tier totals. A worker keeps one and reuses it for every segment;
// the pass allocates only its tables of class totals and selected classes,
// sized to the lattice, on its first segment.
type SegmentPass struct {
	// The segment's leaf counts, exactly what evaluating every leaf
	// counts: Evaluated is the segment's length, PreScreened the leaves
	// the pre-screen rejects, CacheHits the admitted leaves less the
	// profile slots this pass computed, and Feasible the leaves that fit.
	Evaluated, PreScreened, CacheHits, Feasible int

	lat   *SegmentLattice
	probe execution.Strategy
	shape [3]int // the probe's n, bp and bc (eval.loadShape)
	slots [MaxSlots]slotPass
	// totals holds the admitted classes' first- and second-tier totals,
	// slot by slot, each slot's in the lattice's screen order (total).
	totals [][2]units.Bytes
	// The rows of the current graph slot and profile slot by row index, as
	// MemBreakdown.Total adds them, tier by tier: the weights plus their
	// gradients; the optimizer state; the activations and their gradient
	// working space, apart.
	weights [8][2]units.Bytes
	optim   [4][2]units.Bytes
	acts    [2][4]units.Bytes

	// The floor pass's selection (Runner.PassFloors), apart from the slots
	// every segment's memory pass writes: the selected classes, fastest
	// floor first, the floor of each class by profile slot and screen bits,
	// and the global batch its sample rate is for.
	order  []Class
	floors [MaxSlots][32]units.Seconds
	batch  float64
	// asked is the floor keys PassFloors hands keep, held here: keys on
	// PassFloors' frame would move to the heap at every call, since keep
	// may keep the pointer.
	asked Keys
}

// Class names a memory class of a segment by its coordinates: the index of
// its profile slot in the lattice and its screen bits.
type Class struct {
	Slot   int
	Screen uint32
}

// slotPass is one profile slot's part of a pass.
type slotPass struct {
	bound units.Seconds // batchTimeBound, which reads only the profile and the shape; set when some class fits
	rate  float64       // the sample rate of bound
	least units.Bytes   // the least Mem1 of a fitting class
	fits  uint32        // bit b: the class with screen bits b is admitted and fits
	// The slot's TP floor, once SlotFloor or PassFloors priced it.
	tpPriced     bool
	tpFwd, tpBwd units.Seconds
}

// total returns the first- and second-tier totals of the class of profile
// slot i and screen bits b, which the last pass admitted.
func (p *SegmentPass) total(i int, b uint32) *[2]units.Bytes {
	return &p.totals[i*len(p.lat.screens)+int(p.lat.screenOf[b])]
}

// Bound returns the bound keys of profile slot i: the batch-time bound
// every leaf of the slot shares (batchTimeBound) with the least Mem1 of its
// fitting classes, and false when none fits. keys are no higher than the
// bound keys of each fitting class of the slot, so a fold whose admission
// is monotone in batch time and first-tier memory that turns them away
// turns every class of the slot away.
func (p *SegmentPass) Bound(i int) (Keys, bool) {
	s := &p.slots[i]
	if s.fits == 0 {
		return Keys{}, false
	}
	return Keys{BatchTime: s.bound, SampleRate: s.rate, Mem1: s.least}, true
}

// SlotFloor returns the floor keys of profile slot i, whose Bound the last
// PassSegment reported: classFloor's arithmetic with every class term at 0,
// that is batchTimeBound plus the slot's TP floor (tpFloor) per block visit
// over the n·bp visits and the bubble's (p−1)·bc, scaled by floorMargin,
// with the least Mem1 of the slot's fitting classes. Each class term is
// ≥ 0 and enters the floor only through sums and maxima, which rounding
// keeps monotone, so these keys are no higher than the floor keys of each
// fitting class of the slot bit for bit, and so than every leaf's exact
// keys. A search asks for them only on a slot whose Bound its fold keeps.
func (r *Runner) SlotFloor(chain *RunInfo, p *SegmentPass, i int) Keys {
	var e eval
	p.evalOn(&e, r, r.chainOf(chain))
	tpFwd, tpBwd := p.onSlot(r, &e, i)
	t := e.classFloor(tpFwd, tpBwd, &classTerms{})
	return Keys{BatchTime: t, SampleRate: t.Rate(float64(r.m.Batch)), Mem1: p.slots[i].least}
}

// evalOn points the zero evaluation *e at the pass's probe on the chain's
// memo with the shape of the segment PassSegment last ran on. It fills *e in
// place: an eval returned by value is copied out whole.
func (p *SegmentPass) evalOn(e *eval, r *Runner, d *deltaState) {
	e.m, e.sys, e.st, e.memo = &r.m, &r.sys, &p.probe, &d.memo
	e.n, e.bp, e.bc = p.shape[0], p.shape[1], p.shape[2]
}

// onSlot sets the probe's block switches to profile slot i's, loads the
// slot's profile into e, and returns the slot's TP floor (tpFloor), priced
// once per segment.
func (p *SegmentPass) onSlot(r *Runner, e *eval, i int) (tpFwd, tpBwd units.Seconds) {
	p.lat.slots[i].set(&p.probe)
	p.loadSlot(r, e, i)
	s := &p.slots[i]
	if !s.tpPriced {
		s.tpFwd, s.tpBwd = e.tpFloor()
		s.tpPriced = true
	}
	return s.tpFwd, s.tpBwd
}

// loadSlot loads the block profile and op times of profile slot i, whose
// block switches e.st holds, into e from the row e's memo holds: the pass
// read, and counted, a slot where some class fits, so its graph is built,
// and the chain's memo holds the segment's row until the next segment.
func (p *SegmentPass) loadSlot(r *Runner, e *eval, i int) {
	ls := &p.lat.slots[i]
	prof := blockProfile{g: e.memo.row.graphs[ls.profile%graphSlots].Load(), recompute: ls.recompute}
	e.loadProfile(prof)
	e.loadTimes(r.times(e.memo, prof, e.st))
}

// PassSegment runs the memory half of every class of the segment rooted at
// root — the leaves lat's lattice holds from it — at once, on the chain's
// verdict table and row memo, and writes the verdicts and counts into *p.
// The root's shape is validated once; every leaf passes the toggle rules
// (TestLatticeBulkInvariants), so a class is admitted exactly when the
// pre-screen passes its screen switches. Each memory row runs once per
// distinct input — the weight and optimizer rows per graph slot and their
// screen switches, the activation row per profile slot and ActOffload — on
// the functions the chain runs, and each class's tier totals are summed from
// its three rows in MemBreakdown.Total's order, so every total, and with it
// each capacity verdict, is bit for bit the one evaluating the class
// computes. A slot's profile is read once, only when some screen
// combination is admitted, so a profile miss is counted here exactly as
// evaluating the slot's first admitted leaf would count it; the memory rows
// read only its graph's memory half, and its op times are read, for the
// bound, only on a slot where some class fits. The search's roots are training strategies
// that pass ValidateShape; a root that is not has no admitted leaf, and its
// leaves are only counted as evaluated.
//
//calculonvet:ordered
func (r *Runner) PassSegment(chain *RunInfo, lat *SegmentLattice, root *execution.Strategy, p *SegmentPass) {
	d := r.chainOf(chain)
	p.lat = lat
	if n := len(lat.slots) * len(lat.screens); cap(p.totals) < n {
		p.totals, p.order = make([][2]units.Bytes, n), make([]Class, 0, n)
	}
	p.Evaluated, p.PreScreened, p.CacheHits, p.Feasible = lat.len, 0, 0, 0
	for i := range lat.slots {
		p.slots[i].fits, p.slots[i].tpPriced = 0, false
	}
	if root.Inference || root.ValidateShape(&r.m) != nil {
		return
	}
	p.probe = *root
	st := &p.probe
	var admitted uint32
	for _, b := range lat.screens {
		setScreenBits(st, b)
		if d.screens.check(r.screen, st).OK() {
			admitted |= 1 << b
		} else {
			p.PreScreened += lat.perScreen
		}
	}
	if admitted == 0 {
		return
	}
	p.CacheHits = lat.len - p.PreScreened
	e := eval{m: &r.m, sys: &r.sys, st: st, memo: &d.memo}
	e.loadShape()
	p.shape = [3]int{e.n, e.bp, e.bc}
	if fl, ok := r.mem1Floor(d, lat, root, p.shape); ok && fl > r.sys.Mem1.Capacity {
		// No leaf fits, and every slot is in the memo: the classes would
		// all be admitted cache hits that overflow the first tier.
		return
	}
	var m1, m2 MemBreakdown     // each row's output, before p keeps it
	graph := uint32(graphSlots) // none yet
	for i := range lat.slots {
		ls, s := &lat.slots[i], &p.slots[i]
		ls.set(st)
		prof, hit := r.profile(&d.memo, st, false)
		if !hit {
			p.CacheHits--
		}
		e.loadProfile(prof)
		// The slots of one graph share its totals, and so its weight and
		// optimizer rows.
		if g := ls.profile % graphSlots; g != graph {
			graph = g
			for k, b := range lat.weightRows {
				setScreenBits(st, b)
				e.weightRows(&m1, &m2)
				p.weights[k] = [2]units.Bytes{m1.Weights + m1.WeightGrads, m2.Weights + m2.WeightGrads}
			}
			for k, b := range lat.optimRows {
				setScreenBits(st, b)
				e.optimizerRows(&m1, &m2)
				p.optim[k] = [2]units.Bytes{m1.Optimizer, m2.Optimizer}
			}
		}
		for k, b := range lat.actRows {
			setScreenBits(st, b)
			e.activationRows(&m1, &m2)
			p.acts[k] = [4]units.Bytes{m1.Activations, m1.ActGrads, m2.Activations, m2.ActGrads}
		}
		s.least = units.Bytes(math.Inf(1))
		for _, b := range lat.screens {
			if admitted&(1<<b) == 0 {
				continue
			}
			w, o, a := &p.weights[lat.weightOf[b]], &p.optim[lat.optimOf[b]], &p.acts[lat.actOf[b]]
			t1 := w[0] + a[0] + a[1] + o[0]
			t2 := w[1] + a[2] + a[3] + o[1]
			*p.total(i, b) = [2]units.Bytes{t1, t2}
			if t1 > r.sys.Mem1.Capacity || t2 > r.sys.Mem2.Capacity {
				continue
			}
			s.fits |= 1 << b
			s.least = minBytes(s.least, t1)
			p.Feasible += ls.leaves
		}
		if s.fits != 0 {
			// Bound is read only on a slot where some class fits, so only
			// there are the op times read.
			e.loadTimes(r.times(&d.memo, prof, st))
			s.bound = e.batchTimeBound()
			s.rate = s.bound.Rate(float64(r.m.Batch))
		}
	}
}

// PassFloors is the floor half of the segment pass, for a search whose fold
// can keep some leaf of the segment PassSegment last ran on. It prices the
// class floor of every fitting class of profile slot i whose Mem1 lies below
// below[i] (one entry per slot), selects the class when keep accepts its
// floor keys, and returns the selected classes in ascending floor batch
// time, ties in slot and screen order, so a search steps first into the
// classes most likely to enter its fold; Floor reads a selected class's
// floor keys back. The slice is the pass's, valid until its next use. The
// floor is classFloor's arithmetic on rows priced once per distinct input,
// on the chain's memo and the functions a leaf's time terms run: the TP
// floor per profile slot, the data-parallel exposure and penalty per slot
// and (OptimSharding, DPOverlap), the optimizer step per graph slot and
// (OptimSharding, OptimOffload), and the offload transfers per slot and
// (the three offloads, OptimSharding). None of them
// reads a variant field, so each floor is bit for bit what classFloor gives
// on any leaf of the class after its time terms
// (TestPassFloorsMatchChainFloor), and floorMargin's soundness carries over.
//
//calculonvet:ordered
func (r *Runner) PassFloors(chain *RunInfo, p *SegmentPass, below []units.Bytes, keep func(*Keys) bool) []Class {
	lat := p.lat
	p.batch = float64(r.m.Batch)
	st := &p.probe
	var e eval
	p.evalOn(&e, r, r.chainOf(chain))
	// Each row's terms by row index, and the rows priced: the optimizer
	// step's since the graph slot changed, the others' since the slot did.
	var optim [4]units.Seconds
	var data [4][2]units.Seconds
	var xfer [16][2]units.Seconds
	var haveOptim, haveData, haveXfer uint32
	graph := uint32(graphSlots) // none yet
	p.order = p.order[:0]
	for i := range lat.slots {
		var cands uint32
		for f := p.slots[i].fits; f != 0; f &= f - 1 {
			if b := bits.TrailingZeros32(f); p.total(i, uint32(b))[0] < below[i] {
				cands |= 1 << b
			}
		}
		if cands == 0 {
			continue
		}
		tpFwd, tpBwd := p.onSlot(r, &e, i)
		if g := lat.slots[i].profile % graphSlots; g != graph {
			graph, haveOptim = g, 0
		}
		haveData, haveXfer = 0, 0
		for ; cands != 0; cands &= cands - 1 {
			b := uint32(bits.TrailingZeros32(cands))
			setScreenBits(st, b)
			di, oi, xi := lat.dataOf[b], lat.optimOf[b], lat.xferOf[b]
			if haveData&(1<<di) == 0 {
				e.dpTotal, e.dpExposed, e.dpPenalty = 0, 0, 0
				e.dataComm()
				data[di] = [2]units.Seconds{e.dpPenalty, e.dpExposed}
				haveData |= 1 << di
			}
			if haveOptim&(1<<oi) == 0 {
				e.optimTime = 0
				e.optimizer()
				optim[oi] = e.optimTime
				haveOptim |= 1 << oi
			}
			if haveXfer&(1<<xi) == 0 {
				// offload leaves the transfer times alone with no offload
				// switch on; its other outputs are not read here.
				e.xferFwd, e.xferBwd = 0, 0
				e.offload()
				xfer[xi] = [2]units.Seconds{e.xferFwd, e.xferBwd}
				haveXfer |= 1 << xi
			}
			c := classTerms{dpPenalty: data[di][0], dpExposed: data[di][1], optimTime: optim[oi],
				xferFwd: xfer[xi][0], xferBwd: xfer[xi][1]}
			p.floors[i][b] = e.classFloor(tpFwd, tpBwd, &c)
			if p.asked = p.Floor(i, b); keep(&p.asked) {
				p.order = append(p.order, Class{i, b})
			}
		}
	}
	slices.SortStableFunc(p.order, func(x, y Class) int {
		return cmp.Compare(p.floors[x.Slot][x.Screen], p.floors[y.Slot][y.Screen])
	})
	return p.order
}

// Fitting returns the classes that fit by the last PassSegment, slot by
// slot. The slice is the pass's, valid until its next use.
func (p *SegmentPass) Fitting() []Class {
	p.order = p.order[:0]
	for i := range p.lat.slots {
		for f := p.slots[i].fits; f != 0; f &= f - 1 {
			p.order = append(p.order, Class{i, uint32(bits.TrailingZeros32(f))})
		}
	}
	return p.order
}

// Floor returns the floor keys of the class of profile slot i and screen
// bits b, whose floor the last PassFloors priced.
func (p *SegmentPass) Floor(i int, b uint32) Keys {
	t := p.floors[i][b]
	return Keys{BatchTime: t, SampleRate: t.Rate(p.batch), Mem1: p.total(i, b)[0]}
}
