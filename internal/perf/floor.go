package perf

import (
	"math"
	"math/bits"

	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/units"
)

// mem1Floor returns a first-tier total no larger than any leaf's of the
// segment rooted at root, or false when a profile slot it reads is not yet
// in the memo (or the root is an inference strategy). It runs the three
// memory rows once on the root's shape — its (n, bp, bc), which the caller
// has derived, as no toggle reaches them — with the slot minima of the root's
// row in place of the block profile — the smallest weight bytes, stored
// activations and largest output over every slot the lattice reaches — and
// each screen switch the lattice ever turns on turned on: offloading keeps
// at most a working set of a category resident, sharding divides the
// optimizer state and, with DP overlap, the gradients. Every row is a
// composition of Times, DivN, + and min, with no fused multiply-add, each
// monotone under round-to-nearest in every operand; so with each input no
// larger than a leaf's, and each switch saving no less, each row — and the
// total, summed in the same order — is at most that leaf's, bit for bit.
// The second tier is left out: its rows subtract the resident part, which
// is not monotone.
func (r *Runner) mem1Floor(d *deltaState, lat *SegmentLattice, root *execution.Strategy, shape [3]int) (units.Bytes, bool) {
	if root.Inference {
		return 0, false
	}
	mn := d.memo.rowOf(r, root).slotMinima(lat.reach)
	if mn == nil {
		return 0, false
	}
	st := *root
	// The minimum stored activations are the totals' ActBytes below, which
	// actPerMBPerBlock returns as they are under no recompute.
	st.Recompute = execution.RecomputeNone
	setScreenBits(&st, lat.saving)
	e := eval{m: &r.m, sys: &r.sys, st: &st, memo: &d.memo}
	e.tot = &layers.Totals{WeightBytes: mn.weight, ActBytes: mn.acts, MaxOutputBytes: mn.maxOutput}
	e.n, e.bp, e.bc = shape[0], shape[1], shape[2]
	var mem1, mem2 MemBreakdown
	e.weightRows(&mem1, &mem2)
	e.optimizerRows(&mem1, &mem2)
	e.activationRows(&mem1, &mem2)
	return mem1.Total(), true
}

// slotMinima are the minima over a set of a row's profile slots of the
// block-profile terms the first-tier memory rows read: the weight bytes,
// the stored activations per microbatch under each slot's recompute mode
// (storedActs), and the largest output.
type slotMinima struct {
	slots                   uint64
	weight, acts, maxOutput units.Bytes
}

// slotMinima returns the row's minima over slots, or nil while any of those
// slots is untouched (not yet read, and so not yet counted as a miss). The
// row keeps the minima it last computed, keyed by the slot set, so a search,
// whose lattice reaches one set, computes them once per row; built graphs
// never change, so kept minima stay exact.
func (row *profileRow) slotMinima(slots uint64) *slotMinima {
	if mn := row.minima.Load(); mn != nil && mn.slots == slots {
		return mn
	}
	if row.touched.Load()&slots != slots {
		return nil
	}
	inf := units.Bytes(math.Inf(1))
	mn := slotMinima{slots: slots, weight: inf, acts: inf, maxOutput: inf}
	for s := slots; s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(s)
		g := row.graphs[i%graphSlots].Load() // published before its slots' bits
		mn.weight = minBytes(mn.weight, g.tot.WeightBytes)
		mn.acts = minBytes(mn.acts, storedActs(&g.tot, g.boundaryBytes, slotRecompute[i>>4]))
		mn.maxOutput = minBytes(mn.maxOutput, g.tot.MaxOutputBytes)
	}
	kept := new(slotMinima) // only a complete set of minima reaches the heap
	*kept = mn
	row.minima.Store(kept)
	return kept
}
