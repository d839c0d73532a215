package perf

// SetOnLeaf sets a hook RunLeaf calls on every leaf it prices, for the
// tests outside the package that count them (nil to clear it). It must not
// change while a chain runs.
func SetOnLeaf(f func()) {
	onLeaf = f
}

// Bound returns the bound keys of the class the chain stepped into: its
// exact Mem1, and a BatchTime from the profile and shape terms alone
// (batchTimeBound) that is never above any of its leaves' exact one, so a
// SampleRate never below it. PassSegment's slot Bound is this bound.
func (i *RunInfo) Bound() Keys {
	return i.delta.r.boundKeys(&i.delta.evalState)
}

// boundKeys returns the bound keys of an evaluation state whose profile,
// shape and Mem1 key are loaded.
func (r *Runner) boundKeys(s *evalState) Keys {
	t := s.e.batchTimeBound()
	return Keys{BatchTime: t, SampleRate: t.Rate(float64(r.m.Batch)), Mem1: s.keys.Mem1}
}

// MirrorSearches is mirrorSearches, the tests' copy of the search worker's
// segment step, for the tests outside the package that hold it to the
// search.
var MirrorSearches = mirrorSearches
