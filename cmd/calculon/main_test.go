package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := captureErr(t, fn)
	if err != nil {
		t.Fatalf("command failed: %v\noutput: %s", err, out)
	}
	return out
}

// captureErr is capture for a command that may fail: it returns what fn
// printed and its error.
func captureErr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestDispatchPresets(t *testing.T) {
	out := capture(t, func() error { return dispatch(context.Background(), "presets", nil) })
	for _, frag := range []string{"gpt3-175B", "megatron-1T", "a100-80g", "h100-80g"} {
		if !strings.Contains(out, frag) {
			t.Errorf("presets output missing %q", frag)
		}
	}
}

func TestDispatchRun(t *testing.T) {
	out := capture(t, func() error {
		return dispatch(context.Background(), "run", []string{"-model", "gpt3-13B", "-batch", "8",
			"-procs", "8", "-tp", "8", "-pp", "1", "-dp", "1", "-recompute", "none", "-layers"})
	})
	for _, frag := range []string{"batch time", "MFU", "attn_qkv", "mlp_fc2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("run output missing %q:\n%s", frag, out)
		}
	}
}

func TestDispatchRunScenario(t *testing.T) {
	root := repoRootForTest(t)
	out := capture(t, func() error {
		return dispatch(context.Background(), "run", []string{"-scenario",
			filepath.Join(root, "configs", "scenarios", "validation-1t-full.json")})
	})
	if !strings.Contains(out, "megatron-1T") {
		t.Errorf("scenario run output missing model:\n%s", out)
	}
}

func TestDispatchStudyJSON(t *testing.T) {
	out := capture(t, func() error { return dispatch(context.Background(), "study", []string{"table2", "-json"}) })
	var rows []map[string]any
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatalf("study -json is not valid JSON: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("want 8 validation rows, got %d", len(rows))
	}
}

// TestDispatchStudyEveryJSON runs every experiment with -json: each must
// print one JSON document, or fail and print nothing. Only fig2, a
// rendering with no data behind it, fails.
func TestDispatchStudyEveryJSON(t *testing.T) {
	for _, name := range strings.Fields(experimentNames) {
		out, err := captureErr(t, func() error {
			return dispatch(context.Background(), "study", []string{name, "-json"})
		})
		switch {
		case err != nil && out != "":
			t.Errorf("study %s -json failed (%v) after printing %q", name, err, out)
		case (err != nil) != (name == "fig2"):
			t.Errorf("study %s -json: error %v", name, err)
		case err == nil && !json.Valid([]byte(out)):
			t.Errorf("study %s -json printed no JSON document:\n%.300s", name, out)
		}
	}
}

func TestDispatchInfer(t *testing.T) {
	out := capture(t, func() error {
		return dispatch(context.Background(), "infer", []string{"-model", "gpt3-13B", "-tp", "8", "-pp", "1",
			"-prompt", "128", "-gen", "16", "-serve-batch", "2"})
	})
	for _, frag := range []string{"prefill", "per-token", "throughput"} {
		if !strings.Contains(out, frag) {
			t.Errorf("infer output missing %q:\n%s", frag, out)
		}
	}
}

func TestDispatchTimeline(t *testing.T) {
	out := capture(t, func() error {
		return dispatch(context.Background(), "timeline", []string{"-model", "gpt3-13B", "-batch", "12",
			"-tp", "4", "-pp", "4", "-interleave", "2", "-width", "80"})
	})
	if !strings.Contains(out, "stage  0") || !strings.Contains(out, "bubble") {
		t.Errorf("timeline output incomplete:\n%s", out)
	}
}

func TestDispatchSensitivity(t *testing.T) {
	out := capture(t, func() error {
		return dispatch(context.Background(), "sensitivity", []string{"-model", "gpt3-13B", "-batch", "8",
			"-procs", "8", "-tp", "8", "-pp", "1", "-dp", "1", "-recompute", "none"})
	})
	if !strings.Contains(out, "matrix throughput") {
		t.Errorf("sensitivity output incomplete:\n%s", out)
	}
}

// TestDispatchSearchCancelled is the CLI half of the graceful-shutdown
// contract: a cancelled context (what SIGINT produces in main) makes the
// search subcommand return context.Canceled promptly instead of running the
// full sweep, and a -timeout produces context.DeadlineExceeded on its own.
func TestDispatchSearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := dispatch(ctx, "search", []string{"-model", "gpt3-13B", "-batch", "64", "-procs", "64"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestDispatchSearchTimeout gives the search a deadline that has passed
// before it starts, so no search is fast enough to finish first.
func TestDispatchSearchTimeout(t *testing.T) {
	err := dispatch(context.Background(), "search", []string{"-model", "gpt3-175B", "-batch", "512",
		"-procs", "512", "-timeout", "1ns"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestDispatchStudyNameFirst: a flag where the experiment name belongs is
// answered with the grammar and the valid names, not with an unknown
// experiment called "-h".
func TestDispatchStudyNameFirst(t *testing.T) {
	for _, args := range [][]string{nil, {"-h"}, {"-full", "fig5"}} {
		err := dispatch(context.Background(), "study", args)
		if err == nil || !strings.Contains(err.Error(), "experiment name comes first") ||
			!strings.Contains(err.Error(), "fig5") {
			t.Errorf("study %q: got %v, want the name-first error listing the experiments", args, err)
		}
	}
}

// TestDispatchStoreServesRerun: every search command writes its verdict to
// a fresh -store on the first run and serves the second run from it.
func TestDispatchStoreServesRerun(t *testing.T) {
	small := []string{"-model", "gpt3-13B", "-batch", "32", "-procs", "16"}
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"search", []string{"-features", "seqpar", "-topk", "3"}},
		{"scaling", []string{"-step", "8", "-max", "16", "-csv"}},
		{"serve-search", nil},
		{"tco", nil},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store.jsonl")
			args := append(append(append([]string{}, small...), tc.args...), "-store", store)
			run := func() string {
				return capture(t, func() error { return dispatch(context.Background(), tc.cmd, args) })
			}
			if out := run(); strings.Contains(out, "served from result store") {
				t.Fatalf("cold run claims a store hit:\n%s", out)
			}
			if data, err := os.ReadFile(store); err != nil || len(data) == 0 {
				t.Fatalf("cold run wrote no store row (err %v)", err)
			}
			if out := run(); !strings.Contains(out, "served from result store") {
				t.Fatalf("warm run was not served from the store:\n%s", out)
			}
		})
	}
}

func TestDispatchUnknown(t *testing.T) {
	if err := dispatch(context.Background(), "bogus", nil); err != errUnknownCommand {
		t.Fatalf("want errUnknownCommand, got %v", err)
	}
}

func repoRootForTest(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found")
		}
		dir = parent
	}
}
