package search

// Right-sizing helpers for §5.2's acquisition question: "Right-sizing the
// system in light of [efficiency cliffs] could mean the difference between
// deciding to use or acquire a relatively smaller system."

// BestEfficiency returns the scaling point with the highest sample rate per
// processor — the most cost-effective size in a sweep. ok is false when no
// point in the sweep can run the model.
func BestEfficiency(points []ScalingPoint) (ScalingPoint, bool) {
	var best ScalingPoint
	found := false
	for _, p := range points {
		if !p.Found || p.Procs == 0 {
			continue
		}
		if !found || perProc(p) > perProc(best) ||
			(perProc(p) == perProc(best) && p.Procs < best.Procs) {
			best = p
			found = true
		}
	}
	return best, found
}

// Relative returns each point's efficiency against perfect scaling from the
// sweep's best per-processor rate (BestEfficiency's), the normalization of
// the paper's Fig. 7; -1 marks the sizes that cannot run the model.
func Relative(points []ScalingPoint) []float64 {
	best := 0.0
	if eff, ok := BestEfficiency(points); ok {
		best = perProc(eff)
	}
	rel := make([]float64, len(points))
	for i, p := range points {
		rel[i] = -1
		if p.Found && best > 0 {
			rel[i] = p.Best.SampleRate / (best * float64(p.Procs))
		}
	}
	return rel
}

// RightSize returns the smallest size whose per-processor efficiency is
// within frac of the sweep's best — the "don't buy into a cliff" answer.
// A frac of 0.1 accepts sizes within 10% of the best efficiency.
func RightSize(points []ScalingPoint, frac float64) (ScalingPoint, bool) {
	bestEff, ok := BestEfficiency(points)
	if !ok {
		return ScalingPoint{}, false
	}
	floor := perProc(bestEff) * (1 - frac)
	var best ScalingPoint
	found := false
	for _, p := range points {
		if !p.Found || perProc(p) < floor {
			continue
		}
		if !found || p.Procs < best.Procs {
			best = p
			found = true
		}
	}
	return best, found
}

func perProc(p ScalingPoint) float64 {
	return p.Best.SampleRate / float64(p.Procs)
}
