package perf

// SetOnMemoryHalf sets a hook step calls on every memory half a chain runs,
// for the tests outside the package that count them (nil to clear it). It
// must not change while a chain runs.
func SetOnMemoryHalf(f func()) {
	onMemoryHalf = nil
	if f != nil {
		onMemoryHalf = func(groups) { f() }
	}
}

// Bound returns the bound keys of the chain's last leaf, which RunLeaf
// reported feasible: Mem1 exact, and a BatchTime from the profile and shape
// terms alone (batchTimeBound) that is never above the exact one, so a
// SampleRate never below it. PassSegment's slot Bound is this bound.
func (i *RunInfo) Bound() Keys {
	d := i.delta
	t := d.e.batchTimeBound()
	return Keys{BatchTime: t, SampleRate: t.Rate(float64(d.r.m.Batch)), Mem1: d.keys.Mem1}
}

// MirrorSearches is mirrorSearches, the tests' copy of the search worker's
// segment step, for the tests outside the package that hold it to the
// search.
var MirrorSearches = mirrorSearches
