package report

import (
	"strings"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
)

func sampleResult(t *testing.T) perf.Result {
	t.Helper()
	m := model.MustPreset("gpt3-175B").WithBatch(64)
	st := execution.Strategy{TP: 8, PP: 8, DP: 1, Microbatch: 1, Interleave: 1,
		OneFOneB: true, Recompute: execution.RecomputeFull}
	r, err := perf.Run(m, system.A100(64), st)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStackedBarProportions(t *testing.T) {
	var b strings.Builder
	StackedBar(&b, "Batch time", "s", []Segment{
		{"FW", 3}, {"BW", 6}, {"zero", 0},
	}, 30)
	out := b.String()
	if !strings.Contains(out, "Batch time: 9s total") {
		t.Errorf("missing total: %q", out)
	}
	if !strings.Contains(out, "(33.3%)") || !strings.Contains(out, "(66.7%)") {
		t.Errorf("missing percentages: %q", out)
	}
	if strings.Contains(out, "zero") {
		t.Errorf("zero segments must be skipped: %q", out)
	}
}

func TestStackedBarEmpty(t *testing.T) {
	var b strings.Builder
	StackedBar(&b, "x", "s", nil, 10)
	if !strings.Contains(b.String(), "x: 0s total") {
		t.Errorf("empty bar output: %q", b.String())
	}
}

func TestBreakdownMentionsEverything(t *testing.T) {
	var b strings.Builder
	Breakdown(&b, sampleResult(t))
	out := b.String()
	for _, frag := range []string{
		"gpt3-175B", "batch time", "MFU",
		"FW pass", "BW pass", "FW recompute", "PP bubble",
		"Weight", "Activation", "Optimizer space",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("breakdown missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "Mem2") {
		t.Errorf("no mem2 section expected without offload:\n%s", out)
	}
}

func TestTimeSegmentsCoverBatchTime(t *testing.T) {
	r := sampleResult(t)
	sum := 0.0
	for _, s := range TimeSegments(r) {
		sum += s.Value
	}
	if diff := sum - float64(r.BatchTime); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("segments sum %f != batch %f", sum, float64(r.BatchTime))
	}
}

func TestGridRendersInfeasibleDash(t *testing.T) {
	var b strings.Builder
	Grid(&b, "demo", []int{1, 2}, []int{1, 2}, func(tt, pp int) GridCell {
		if tt == 2 && pp == 2 {
			return GridCell{}
		}
		return GridCell{Top: "1.0", Bottom: "2G", OK: true}
	})
	out := b.String()
	if !strings.Contains(out, "—") {
		t.Errorf("missing infeasible dash:\n%s", out)
	}
	if !strings.Contains(out, "t=1") || !strings.Contains(out, "p=2") {
		t.Errorf("missing headers:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	Table(&b, [][]string{
		{"name", "value"},
		{"a", "1"},
		{"longer", "22"},
	})
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
	Table(&b, nil) // must not panic
}

func TestScalingChart(t *testing.T) {
	var b strings.Builder
	Scaling(&b, "scaling", []ScalingPointView{
		{X: 8, Y: 1.0}, {X: 16, Y: 0.5}, {X: 24, Y: -1},
	}, 10)
	out := b.String()
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.500") {
		t.Errorf("missing values:\n%s", out)
	}
	if !strings.Contains(out, "does not run") {
		t.Errorf("missing does-not-run marker:\n%s", out)
	}
}

func TestHistogramChart(t *testing.T) {
	var b strings.Builder
	HistogramChart(&b, "rates", 0, 10, []int{1, 0, 3}, 12)
	out := b.String()
	if !strings.Contains(out, "rates") || !strings.Contains(out, " 3") {
		t.Errorf("histogram output:\n%s", out)
	}
	var e strings.Builder
	HistogramChart(&e, "empty", 0, 0, []int{0}, 10)
	if !strings.Contains(e.String(), "(empty)") {
		t.Errorf("empty marker missing: %q", e.String())
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, [][]string{
		{"gpus", "rate"},
		{"8", "1.5"},
		{"16", "2,5"}, // comma needs quoting
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "gpus,rate\n8,1.5\n16,\"2,5\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
