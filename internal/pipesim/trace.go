package pipesim

import (
	"fmt"
	"io"
	"strings"

	"calculon/internal/units"
)

// TraceOp is one executed chunk visit with its timing, for timeline
// rendering and schedule debugging.
type TraceOp struct {
	Stage      int
	Chunk      int // local chunk index on the stage (0..Chunks-1)
	Microbatch int
	Forward    bool
	Start      units.Seconds
	Finish     units.Seconds
}

// Trace simulates the schedule and returns every op with its timing,
// ordered by stage then start time.
func Trace(p Params) ([]TraceOp, Result, error) {
	pl, err := place(p)
	if err != nil {
		return nil, Result{}, err
	}
	out := make([]TraceOp, 0, 2*p.Stages*p.Chunks*p.Microbatches)
	pl.visit(func(o TraceOp) { out = append(out, o) })
	return out, pl.result(p), nil
}

// visit calls f with every op of the placement in Trace's order: by stage,
// each stage's ops in device order, which is start-time order.
func (pl *placement) visit(f func(TraceOp)) {
	for s, seq := range pl.seqs {
		for _, r := range seq {
			o := pl.fwd[r.chunk][r.mb]
			if !r.isFwd {
				o = pl.bwd[r.chunk][r.mb]
			}
			f(TraceOp{
				Stage: s, Chunk: int(r.chunk) / len(pl.seqs), Microbatch: int(r.mb), Forward: r.isFwd,
				Start: o.start, Finish: o.finish,
			})
		}
	}
}

// RenderTimeline draws the Fig. 2-style schedule: one row per stage, time
// flowing right, forward visits as digits (the microbatch id, uppercase
// letters beyond 9), backward visits bracketed. width is the number of
// character cells for the whole makespan.
func RenderTimeline(w io.Writer, p Params, width int) error {
	pl, err := place(p)
	if err != nil {
		return err
	}
	res := pl.result(p)
	fmt.Fprintf(w, "pipeline schedule %s: p=%d v=%d n=%d — makespan %v, bubble %v\n",
		p.Schedule, p.Stages, p.Chunks, p.Microbatches, res.Makespan, res.Bubble)
	scale := float64(width) / float64(res.Makespan)
	rows := make([][]byte, p.Stages)
	for s := range rows {
		rows[s] = []byte(strings.Repeat(".", width))
	}
	pl.visit(func(o TraceOp) {
		lo := int(float64(o.Start) * scale)
		hi := int(float64(o.Finish) * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := mbChar(o.Microbatch, o.Forward)
		for x := lo; x < hi; x++ {
			rows[o.Stage][x] = ch
		}
	})
	for s, row := range rows {
		fmt.Fprintf(w, "stage %2d |%s|\n", s, string(row))
	}
	fmt.Fprintln(w, "(digits: forward visits by microbatch; letters a-z: backward visits; '.': idle)")
	return nil
}

func mbChar(mb int, fwd bool) byte {
	if fwd {
		if mb < 10 {
			return byte('0' + mb)
		}
		return byte('A' + (mb-10)%26)
	}
	return byte('a' + mb%26)
}
