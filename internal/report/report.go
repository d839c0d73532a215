// Package report renders analysis results as text: stacked-bar breakdowns of
// time and memory (the Fig. 3/4/12 charts), t×p grids of best configurations
// (Figs. 5 and 9), scaling curves (Figs. 7, 10, 11), and aligned tables
// (Tables 2–4). Everything writes plain UTF-8 suitable for terminals, logs,
// and golden-file tests.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"calculon/internal/perf"
	"calculon/internal/units"
)

// Segment is one labelled portion of a stacked bar.
type Segment struct {
	Label string
	Value float64
}

// StackedBar renders labelled segments as a proportional text bar of the
// given width, e.g.
//
//	FW pass    ████████░ 5.02s (30%)
func StackedBar(w io.Writer, title, unit string, segs []Segment, width int) {
	total := 0.0
	for _, s := range segs {
		total += s.Value
	}
	fmt.Fprintf(w, "%s: %s%s total\n", title, trim(total), unit)
	if total <= 0 {
		return
	}
	labelW := 0
	for _, s := range segs {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	for _, s := range segs {
		if s.Value <= 0 {
			continue
		}
		frac := s.Value / total
		n := int(frac*float64(width) + 0.5)
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(w, "  %-*s %-*s %s%s (%.1f%%)\n",
			labelW, s.Label, width, strings.Repeat("█", n), trim(s.Value), unit, 100*frac)
	}
}

// TimeSegments decomposes a result into the paper's Fig. 3 time categories.
func TimeSegments(r perf.Result) []Segment {
	return []Segment{
		{"FW pass", float64(r.Time.FwdPass)},
		{"BW pass", float64(r.Time.BwdPass)},
		{"Optim step", float64(r.Time.OptimStep)},
		{"PP bubble", float64(r.Time.PPBubble)},
		{"FW recompute", float64(r.Time.Recompute)},
		{"TP comm", float64(r.Time.TPExposed)},
		{"PP comm", float64(r.Time.PPExposed)},
		{"DP comm", float64(r.Time.DPExposed)},
		{"Offload", float64(r.Time.OffloadExposed)},
	}
}

// MemSegments decomposes a tier into the paper's Fig. 3 memory categories,
// in gigabytes.
func MemSegments(m perf.MemBreakdown) []Segment {
	const gb = float64(units.GB)
	return []Segment{
		{"Weight", float64(m.Weights) / gb},
		{"Activation", float64(m.Activations) / gb},
		{"Weight gradients", float64(m.WeightGrads) / gb},
		{"Activation gradients", float64(m.ActGrads) / gb},
		{"Optimizer space", float64(m.Optimizer) / gb},
	}
}

// Breakdown renders the full Fig. 3-style report for one result: the batch
// time stack and the first-tier memory stack (plus the second tier when in
// use).
func Breakdown(w io.Writer, r perf.Result) {
	fmt.Fprintf(w, "%s on %s, %v\n", r.Model.Name, r.System, r.Strategy)
	fmt.Fprintf(w, "batch time %v | %.1f samples/s | MFU %.2f%%\n",
		r.BatchTime, r.SampleRate, 100*r.MFU)
	StackedBar(w, "Batch time", "s", TimeSegments(r), 40)
	StackedBar(w, "Mem1 (HBM) consumption", "GB", MemSegments(r.Mem1), 40)
	if r.Mem2.Total() > 0 {
		StackedBar(w, "Mem2 (offload) consumption", "GB", MemSegments(r.Mem2), 40)
		fmt.Fprintf(w, "offload bandwidth: required %v, used %v\n",
			r.OffloadBWRequired, r.OffloadBWUsed)
	}
}

// GridCell is one (t,p) entry of a Fig. 5/9-style grid.
type GridCell struct {
	Top    string // e.g. best batch time or sample rate
	Bottom string // e.g. required memory
	OK     bool   // false renders as the paper's "—" (infeasible)
}

// Grid renders a t×p matrix of cells with row/column headers. rows are
// labelled t=…, columns p=… to match the paper's figures.
func Grid(w io.Writer, title string, ts, ps []int, cell func(t, p int) GridCell) {
	fmt.Fprintln(w, title)
	colW := 12
	fmt.Fprintf(w, "%8s", "")
	for _, p := range ps {
		fmt.Fprintf(w, "%*s", colW, fmt.Sprintf("p=%d", p))
	}
	fmt.Fprintln(w)
	for _, t := range ts {
		top := fmt.Sprintf("%8s", fmt.Sprintf("t=%d", t))
		bottom := fmt.Sprintf("%8s", "")
		for _, p := range ps {
			c := cell(t, p)
			if !c.OK {
				top += fmt.Sprintf("%*s", colW, "—")
				bottom += fmt.Sprintf("%*s", colW, "")
				continue
			}
			top += fmt.Sprintf("%*s", colW, c.Top)
			bottom += fmt.Sprintf("%*s", colW, c.Bottom)
		}
		fmt.Fprintln(w, top)
		if strings.TrimSpace(bottom) != "" {
			fmt.Fprintln(w, bottom)
		}
	}
}

// Table renders rows with aligned columns; the first row is the header.
func Table(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
		}
	}
}

// ScalingPointView is one x,y of a scaling curve.
type ScalingPointView struct {
	X int
	Y float64 // relative efficiency in [0,1]; <0 marks "does not run"
}

// Scaling renders a Fig. 7/10-style relative-scaling curve as an ASCII
// column chart: one row per size, bar length proportional to efficiency.
func Scaling(w io.Writer, title string, pts []ScalingPointView, width int) {
	fmt.Fprintln(w, title)
	for _, p := range pts {
		if p.Y < 0 {
			fmt.Fprintf(w, "%6d |%s (does not run)\n", p.X, "")
			continue
		}
		n := int(p.Y*float64(width) + 0.5)
		fmt.Fprintf(w, "%6d |%-*s %.3f\n", p.X, width, strings.Repeat("▇", n), p.Y)
	}
}

// HistogramChart renders bin counts as proportional bars (Fig. 6a).
func HistogramChart(w io.Writer, title string, min, max float64, counts []int, width int) {
	fmt.Fprintln(w, title)
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	span := (max - min) / float64(len(counts))
	for i, c := range counts {
		lo := min + float64(i)*span
		n := int(float64(c) / float64(peak) * float64(width))
		fmt.Fprintf(w, "  [%8.1f,%8.1f) %-*s %d\n", lo, lo+span, width, strings.Repeat("█", n), c)
	}
}

func trim(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// WriteCSV emits rows as RFC-4180 CSV; the first row is the header. It is
// the machine-readable sibling of Table for feeding sweeps into external
// plotting tools.
func WriteCSV(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
