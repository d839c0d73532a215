package experiments

import (
	"encoding/json"
	"math"
)

// The JSON forms of the study results whose Go shape JSON cannot carry:
// the grids' cell maps have array keys, and a speedup may be infinite.

// MarshalJSON encodes the panel with its cells as a list in (t, p) order.
func (g Fig5Grid) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Variant Fig5Variant
		Ts, Ps  []int
		Cells   []Fig5Cell
	}{g.Variant, g.Ts, g.Ps, gridCells(g.Ts, g.Ps, g.Cells)})
}

// MarshalJSON encodes the panel pair with its cells as a list in (t, p)
// order.
func (g Fig9Grid) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Title  string
		Ts, Ps []int
		Cells  []Fig9Cell
	}{g.Title, g.Ts, g.Ps, gridCells(g.Ts, g.Ps, g.Cells)})
}

// gridCells lists a grid's cells t-major, skipping the (t, p) pairs it
// has no cell for.
func gridCells[C any](ts, ps []int, cells map[[2]int]C) []C {
	var out []C
	for _, t := range ts {
		for _, p := range ps {
			if c, ok := cells[[2]int{t, p}]; ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// MarshalJSON encodes the curve with null for an infinite speedup (a size
// where the model runs only with offloading).
func (c SpeedupCurve) MarshalJSON() ([]byte, error) {
	pct := make([]*float64, len(c.SpeedupPct))
	for i := range c.SpeedupPct {
		if !math.IsInf(c.SpeedupPct[i], 0) {
			pct[i] = &c.SpeedupPct[i]
		}
	}
	return json.Marshal(struct {
		Model      string
		Sizes      []int
		SpeedupPct []*float64
	}{c.Model, c.Sizes, pct})
}
