package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDispatchShardMergeBytes is the CLI half of the sharded-sweep
// determinism contract: running the same search as three shards and merging
// the partial files reproduces the single-process `-json` output byte for
// byte. This is the same check the CI shard-merge job runs on the built
// binary; here it pins the dispatch plumbing (flag parsing, -o files, the
// canonical encoding) without a process boundary.
func TestDispatchShardMergeBytes(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-model", "gpt3-13B", "-batch", "32", "-procs", "16",
		"-system", "a100-80g", "-features", "seqpar", "-topk", "3", "-pareto"}

	single := filepath.Join(dir, "single.json")
	args := append(append([]string{}, common...), "-json", "-o", single)
	if err := dispatch(context.Background(), "search", args); err != nil {
		t.Fatal(err)
	}

	var parts []string
	for i := 1; i <= 3; i++ {
		part := filepath.Join(dir, fmt.Sprintf("part%d.json", i))
		args := append(append([]string{}, common...), "-shard", fmt.Sprintf("%d/3", i), "-o", part)
		if err := dispatch(context.Background(), "search", args); err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
		parts = append(parts, part)
	}

	merged := filepath.Join(dir, "merged.json")
	if err := dispatch(context.Background(), "merge", append([]string{"-o", merged}, parts...)); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("merged shard output differs from the single-process run:\nsingle: %d bytes\nmerged: %d bytes", len(want), len(got))
	}
	// The canonical JSON must not leak the non-deterministic counters.
	if bytes.Contains(want, []byte("cache_hits")) {
		t.Error("canonical search JSON must omit cache_hits (not split-invariant)")
	}
}

// TestDispatchShardBadSpec pins the 1-based CLI shard grammar errors.
func TestDispatchShardBadSpec(t *testing.T) {
	for _, bad := range []string{"0/3", "4/3", "3", "a/b", "1/0", "2x/3", "1/3junk", "1/3/5"} {
		err := dispatch(context.Background(), "search", []string{"-model", "gpt3-13B", "-batch", "32",
			"-procs", "16", "-shard", bad})
		if err == nil {
			t.Errorf("shard %q: want error, got nil", bad)
		}
	}
}

// TestDispatchMergeRejectsGarbage: merging a non-shard file must fail loudly
// rather than produce a half-merged result.
func TestDispatchMergeRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"not_a_shard": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := dispatch(context.Background(), "merge", []string{bogus})
	if err == nil || !strings.Contains(err.Error(), "not a shard result") {
		t.Fatalf("want 'not a shard result' error, got %v", err)
	}
	if err := dispatch(context.Background(), "merge", nil); err == nil {
		t.Fatal("merge with no files must fail")
	}
}

// FuzzAppendIndent holds the CLI's one-pass indent to json.Indent on
// json.Marshal output: the fuzzed text as a string, as an object key and
// inside empty and nested containers (quotes, backslashes, "<>&" and
// non-ASCII text all escape inside strings), and, when the text parses as
// JSON, the value it holds, at depths 0 to 2.
func FuzzAppendIndent(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,2,{}],"b":[],"c":"x\"y\\z","d":{"e":null,"f":[[],[{}]]}}`,
		`"<>&\u2028 é 🙂 \\\""`,
		`[[[]],{},{"":{}},[1.5e300,-0,true,false,null]]`,
		`{"k:v,w":"[{,:}]"}`,
		`0`, `""`, `{}`, `[]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		vals := []any{s, []any{s, map[string]any{s: []any{}}, map[string]any{}, []any{[]any{}, s}}}
		var v any
		if json.Unmarshal([]byte(s), &v) == nil {
			vals = append(vals, v)
		}
		for _, v := range vals {
			compact, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			for depth := 0; depth <= 2; depth++ {
				var want bytes.Buffer
				if err := json.Indent(&want, compact, strings.Repeat("  ", depth), "  "); err != nil {
					t.Fatal(err)
				}
				if got := appendIndent(nil, compact, depth); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("depth %d, %s:\n%s\nwant\n%s", depth, compact, got, want.Bytes())
				}
			}
		}
	})
}
