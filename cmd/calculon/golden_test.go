package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden corpus under testdata/golden from this build's output")

// goldenCases are the CLI outputs the search's fast paths promise to keep
// byte for byte: the paper's headline search (GPT-3 175B at batch 3,072 on
// 4,096 A100s with a 512 GiB second tier, top-10 and the Pareto front), the
// same search's sample-rate histogram (the CollectRates path, which steps
// the chain into every fitting class and prices every leaf of it), CI's
// GPT-3 13B searches (on the seqpar lattice, where each profile slot holds
// one memory class, best-only and with top-K; on the baseline lattice; and
// at 64 GPUs), the chat serving scenario's search, the three
// capacity-tight §5.2 sweeps, and three paper studies: Table 3's
// pinned size sweeps, Fig. 6's search-space statistics (CollectRates
// again) and Fig. 9's offload grid. Each golden is the command's standard
// output; none holds a timing.
var goldenCases = []struct {
	name string
	args []string
}{
	{"search-gpt3-175B", []string{"search", "-model", "gpt3-175B", "-batch", "3072", "-procs", "4096",
		"-mem2", "512GiB", "-topk", "10", "-pareto", "-json"}},
	{"search-gpt3-175B-histogram", []string{"search", "-model", "gpt3-175B", "-batch", "3072", "-procs", "4096",
		"-mem2", "512GiB", "-histogram"}},
	{"search-gpt3-13B-seqpar", []string{"search", "-model", "gpt3-13B", "-batch", "32", "-procs", "16",
		"-system", "a100-80g", "-features", "seqpar", "-topk", "3", "-pareto", "-json"}},
	{"search-gpt3-13B-seqpar-best", []string{"search", "-model", "gpt3-13B", "-batch", "32", "-procs", "16",
		"-system", "a100-80g", "-features", "seqpar", "-topk", "0", "-json"}},
	{"search-gpt3-13B-baseline", []string{"search", "-model", "gpt3-13B", "-batch", "32", "-procs", "16",
		"-system", "a100-80g", "-features", "baseline", "-topk", "3", "-pareto", "-json"}},
	{"search-gpt3-13B-64", []string{"search", "-model", "gpt3-13B", "-batch", "64", "-procs", "64",
		"-topk", "10", "-pareto", "-json"}},
	{"serve-search-chat", []string{"serve-search", "-scenario", "../../configs/scenarios/serving-chat.json", "-json"}},
	{"scaling-megatron-1T-38GiB", []string{"scaling", "-model", "megatron-1T", "-batch", "3072",
		"-hbm", "38GiB", "-step", "8", "-max", "2048", "-csv"}},
	{"scaling-turing-530B-40GiB", []string{"scaling", "-model", "turing-530B", "-batch", "3072",
		"-hbm", "40GiB", "-step", "8", "-max", "2048", "-csv"}},
	{"scaling-palm-540B-42GiB", []string{"scaling", "-model", "palm-540B", "-batch", "3072",
		"-hbm", "42GiB", "-step", "8", "-max", "2048", "-csv"}},
	{"study-table3", []string{"study", "table3"}},
	{"study-fig6-json", []string{"study", "fig6", "-json"}},
	{"study-fig9-json", []string{"study", "fig9", "-json"}},
	{"study-table3-full", []string{"study", "table3", "-full"}},
	{"study-fig7-full", []string{"study", "fig7", "-full"}},
	{"study-fig10-full", []string{"study", "fig10", "-full"}},
	{"study-fig11-full", []string{"study", "fig11", "-full"}},
}

// TestGoldenCorpus runs each golden command at one, two and three workers
// (a study, which takes no -workers, once) and requires every output to
// equal its golden under testdata/golden. A
// change that moves one on purpose regenerates the corpus with
//
//	go test -run TestGoldenCorpus ./cmd/calculon -update
//
// and the diff shows in review. The searches take a few seconds, so -short
// skips them.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden corpus runs full searches")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", c.name+".golden")
			workerFlags := []string{"1", "2", "3"}
			if c.args[0] == "study" {
				workerFlags = []string{""}
			}
			for _, workers := range workerFlags {
				args := c.args[1:len(c.args):len(c.args)]
				if workers != "" {
					args = append(args, "-workers", workers)
				}
				got := capture(t, func() error { return dispatch(context.Background(), c.args[0], args) })
				if *update && workers == workerFlags[0] {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
				}
				if got != string(want) {
					t.Errorf("-workers %s: output differs from %s at %s", workers, path, firstDiff(got, string(want)))
				}
			}
		})
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return "no line (identical?)"
}
