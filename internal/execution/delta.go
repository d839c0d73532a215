package execution

// FieldMask is a bitset over Strategy fields. Delta evaluation
// (perf.Runner.RunDeltaInto, RunLeaf) diffs two strategies into a FieldMask and uses it
// to decide which groups of performance terms the change can perturb; a
// term group whose inputs are all outside the mask carries over from the
// previous evaluation unrecomputed. The bits must stay in one-to-one
// correspondence with the Strategy fields — adding a Strategy field without
// a bit here silently breaks delta reuse, so TestDiffMaskCoversAllFields
// pins the field count.
type FieldMask uint32

const (
	FieldTP FieldMask = 1 << iota
	FieldPP
	FieldDP
	FieldMicrobatch
	FieldInterleave
	FieldOneFOneB
	FieldRecompute
	FieldSeqParallel
	FieldTPRSAG
	FieldTPRedoForSP
	FieldTPOverlap
	FieldDPOverlap
	FieldPPRSAG
	FieldOptimSharding
	FieldFusedLayers
	FieldWeightOffload
	FieldActOffload
	FieldOptimOffload
	FieldInference

	// numStrategyFields is the number of Strategy fields covered by the
	// mask; the coverage test compares it against reflection.
	numStrategyFields = iota
)

// AllFields marks every field changed: the mask of a leaf with no
// predecessor to diff against.
const AllFields = ^FieldMask(0)

// Has reports whether any bit of q is set in m.
func (m FieldMask) Has(q FieldMask) bool { return m&q != 0 }

// DiffMask returns the set of fields on which a and b differ.
func DiffMask(a, b *Strategy) FieldMask {
	var m FieldMask
	if a.TP != b.TP {
		m |= FieldTP
	}
	if a.PP != b.PP {
		m |= FieldPP
	}
	if a.DP != b.DP {
		m |= FieldDP
	}
	if a.Microbatch != b.Microbatch {
		m |= FieldMicrobatch
	}
	if a.Interleave != b.Interleave {
		m |= FieldInterleave
	}
	if a.OneFOneB != b.OneFOneB {
		m |= FieldOneFOneB
	}
	if a.Recompute != b.Recompute {
		m |= FieldRecompute
	}
	if a.SeqParallel != b.SeqParallel {
		m |= FieldSeqParallel
	}
	if a.TPRSAG != b.TPRSAG {
		m |= FieldTPRSAG
	}
	if a.TPRedoForSP != b.TPRedoForSP {
		m |= FieldTPRedoForSP
	}
	if a.TPOverlap != b.TPOverlap {
		m |= FieldTPOverlap
	}
	if a.DPOverlap != b.DPOverlap {
		m |= FieldDPOverlap
	}
	if a.PPRSAG != b.PPRSAG {
		m |= FieldPPRSAG
	}
	if a.OptimSharding != b.OptimSharding {
		m |= FieldOptimSharding
	}
	if a.FusedLayers != b.FusedLayers {
		m |= FieldFusedLayers
	}
	if a.WeightOffload != b.WeightOffload {
		m |= FieldWeightOffload
	}
	if a.ActOffload != b.ActOffload {
		m |= FieldActOffload
	}
	if a.OptimOffload != b.OptimOffload {
		m |= FieldOptimOffload
	}
	if a.Inference != b.Inference {
		m |= FieldInference
	}
	return m
}
