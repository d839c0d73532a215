package experiments

import (
	"encoding/json"
	"math"
	"testing"
)

// TestJSONForms: a grid encodes its cells as a list in (t, p) order,
// leaving out the pairs it has no cell for, and an infinite speedup
// encodes as null.
func TestJSONForms(t *testing.T) {
	g := Fig5Grid{Variant: Fig5Baseline, Ts: []int{1, 2}, Ps: []int{4, 8}, Cells: map[[2]int]Fig5Cell{
		{2, 4}: {T: 2, P: 4, Found: true, BatchSec: 1.5},
		{1, 8}: {T: 1, P: 8},
	}}
	var grid struct{ Cells []Fig5Cell }
	if err := json.Unmarshal(mustJSON(t, g), &grid); err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 2 || grid.Cells[0].T != 1 || grid.Cells[1] != g.Cells[[2]int{2, 4}] {
		t.Errorf("grid cells %+v, want (1,8) then (2,4)", grid.Cells)
	}
	sp := SpeedupCurve{Model: "m", Sizes: []int{8, 16}, SpeedupPct: []float64{math.Inf(1), 12.5}}
	if got, want := string(mustJSON(t, sp)), `{"Model":"m","Sizes":[8,16],"SpeedupPct":[null,12.5]}`; got != want {
		t.Errorf("speedup curve encodes as %s, want %s", got, want)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
