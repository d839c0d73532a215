package experiments

import (
	"context"
	"fmt"
	"io"

	"calculon/internal/execution"
	"calculon/internal/report"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Fig9Cell is one (t,p) entry of the §6 offload study: the best
// configuration's sample rate, HBM usage, and offload-tier requirements.
type Fig9Cell struct {
	T, P      int
	Found     bool
	Rate      float64
	HBM       units.Bytes
	OffloadBW units.BytesPerSec
	OffloadGB units.Bytes
}

// Fig9Grid is one panel pair of Fig. 9 ((a,b) or (c,d)).
type Fig9Grid struct {
	Title  string
	Ts, Ps []int
	Cells  map[[2]int]Fig9Cell
}

// Fig9Offload reproduces the §6 tensor-offloading study: Megatron-1T on
// 4,096 H100-80GiB GPUs with a second memory tier. With infinite=true the
// tier has unbounded capacity and bandwidth and the model reports what the
// best configurations would consume (panels a/b); otherwise the tier is the
// practical 512 GiB at 100 GB/s (panels c/d).
func Fig9Offload(ctx context.Context, infinite bool, scale Scale) (Fig9Grid, error) {
	tier := system.DDR5(512 * units.GiB)
	title := "Fig. 9(c,d) — 512 GiB @ 100 GB/s offload memory"
	if infinite {
		tier = system.InfiniteMem2()
		title = "Fig. 9(a,b) — infinite offload memory"
	}
	grid := Fig9Grid{
		Title: title,
		Ts:    []int{1, 2, 4, 8, 16, 32},
		Ps:    []int{1, 2, 4, 8, 16, 32},
	}
	if scale == ScaleSmall {
		grid.Ts = []int{1, 8, 32}
		grid.Ps = []int{1, 8, 32}
	}
	cells, err := tpGrid(ctx, grid.Ts, grid.Ps, execution.FeatureAll, func(t int) system.System {
		return system.H100(4096, 80*units.GiB, 0).WithMem2(tier).WithFastDomain(max(t, 8))
	}, func(t, p int, res search.Result) Fig9Cell {
		c := Fig9Cell{T: t, P: p, Found: res.Found()}
		if c.Found {
			c.Rate, c.HBM = res.Best.SampleRate, res.Best.Mem1.Total()
			c.OffloadBW, c.OffloadGB = res.Best.OffloadBWUsed, res.Best.Mem2.Total()
		}
		return c
	})
	grid.Cells = cells
	if err != nil {
		return grid, fmt.Errorf("fig9 %w", err)
	}
	return grid, nil
}

// RenderFig9 writes both grids of a panel pair: sample rate over HBM usage
// (a/c) and offload bandwidth over offload capacity (b/d).
func RenderFig9(w io.Writer, g Fig9Grid) {
	report.Grid(w, g.Title+": sample rate over HBM use", g.Ts, g.Ps, func(t, p int) report.GridCell {
		c := g.Cells[[2]int{t, p}]
		return report.GridCell{Top: fmt.Sprintf("%.0f", c.Rate), Bottom: c.HBM.String(), OK: c.Found}
	})
	report.Grid(w, g.Title+": offload bandwidth over capacity", g.Ts, g.Ps, func(t, p int) report.GridCell {
		c := g.Cells[[2]int{t, p}]
		return report.GridCell{Top: c.OffloadBW.String(), Bottom: c.OffloadGB.SI(), OK: c.Found}
	})
}
