package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"calculon/internal/config"
	"calculon/internal/search"
	"calculon/internal/serving"
)

// TestServeSweepJSONBytes pins the sweep's parallel point encoding to the
// canonical one: `serve-search -step -max -json` must write exactly
// json.MarshalIndent of the sweep's points, two-space indent, and a newline
// — on stdout and to -o, on one worker and on four — and writeJSONList must
// do the same for no points, one point and many.
func TestServeSweepJSONBytes(t *testing.T) {
	ctx := context.Background()
	scenario := filepath.Join(repoRootForTest(t), "configs", "scenarios", "serving-chat.json")
	sc, err := config.Load[config.ServingScenario](scenario)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := serving.Sweep(ctx, spec, search.Sizes(64, 512), serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canonical := func(v any) []byte {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	dir := t.TempDir()

	want := canonical(pts)
	for _, workers := range []string{"1", "4"} {
		args := []string{"-scenario", scenario, "-step", "64", "-max", "512", "-json", "-workers", workers}
		out := capture(t, func() error { return dispatch(ctx, "serve-search", args) })
		if !bytes.Equal([]byte(out), want) {
			t.Errorf("-workers %s: stdout differs from MarshalIndent (%d bytes, want %d)", workers, len(out), len(want))
		}
		path := filepath.Join(dir, "sweep-"+workers+".json")
		if err := dispatch(ctx, "serve-search", append(args, "-o", path)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("-workers %s: -o file differs from MarshalIndent (%d bytes, want %d; err %v)", workers, len(got), len(want), err)
		}
	}

	for _, items := range [][]serving.SizeResult{nil, {}, pts[:1], pts} {
		want := canonical(items)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%d points on %d workers", len(items), workers)
			out := capture(t, func() error { return writeJSONList(ctx, "", workers, items) })
			if !bytes.Equal([]byte(out), want) {
				t.Errorf("%s: stdout differs from MarshalIndent (%d bytes, want %d)", name, len(out), len(want))
			}
			path := filepath.Join(dir, fmt.Sprintf("list-%d-%d.json", len(items), workers))
			if err := writeJSONList(ctx, path, workers, items); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: file differs from MarshalIndent (%d bytes, want %d; err %v)", name, len(got), len(want), err)
			}
		}
	}
}
