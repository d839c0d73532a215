package pipesim

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one complete event ("ph":"X") of the Chrome trace-event
// format, loadable in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name            string     `json:"name"`
	Phase           string     `json:"ph"`
	TimestampMicros float64    `json:"ts"`
	DurationMicros  float64    `json:"dur"`
	PID             int        `json:"pid"`
	TID             int        `json:"tid"`
	Args            chromeArgs `json:"args"`
}

// chromeArgs is an event's args object, its keys in sorted order.
type chromeArgs struct {
	Chunk      int    `json:"chunk"`
	Direction  string `json:"direction"`
	Microbatch int    `json:"microbatch"`
}

// WriteChromeTrace simulates the schedule and writes it as a Chrome
// trace-event JSON document: one track per pipeline stage, one complete
// event per chunk visit. Load the output in chrome://tracing or
// https://ui.perfetto.dev to inspect the schedule interactively. Events are
// encoded as the placement yields them, so the document is never held
// whole.
func WriteChromeTrace(w io.Writer, p Params) error {
	pl, err := place(p)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	sep := ""
	pl.visit(func(o TraceOp) {
		dir := "fwd"
		if !o.Forward {
			dir = "bwd"
		}
		b, merr := json.Marshal(chromeEvent{
			Name:            fmt.Sprintf("%s c%d m%d", dir, o.Chunk, o.Microbatch),
			Phase:           "X",
			TimestampMicros: float64(o.Start) * 1e6,
			DurationMicros:  float64(o.Finish-o.Start) * 1e6,
			TID:             o.Stage,
			Args:            chromeArgs{Chunk: o.Chunk, Direction: dir, Microbatch: o.Microbatch},
		})
		err = cmp.Or(err, merr)
		bw.WriteString(sep)
		bw.Write(b)
		sep = ","
	})
	if err != nil {
		return err
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
