package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"calculon/internal/perf"
	"calculon/internal/search"
)

// searchOutput is the canonical JSON of a finished search: exactly the
// fields that are bit-identical however the search was executed — single
// process, any worker count, or sharded across machines and merged. Two
// Result fields are deliberately absent: CacheHits (each process warms its
// own block-profile memo, so the count depends on the process split) and
// Rates (ordered by worker completion). The CI shard-merge job diffs this
// encoding byte for byte between a single-process run and a merged sharded
// run; anything added here must keep that property.
type searchOutput struct {
	Evaluated     int           `json:"evaluated"`
	Feasible      int           `json:"feasible"`
	PreScreened   int           `json:"pre_screened"`
	SubtreePruned int           `json:"subtree_pruned"`
	Best          *perf.Result  `json:"best,omitempty"`
	Top           []perf.Result `json:"top,omitempty"`
	Pareto        []perf.Result `json:"pareto,omitempty"`
}

func newSearchOutput(res search.Result) searchOutput {
	out := searchOutput{
		Evaluated:     res.Evaluated,
		Feasible:      res.Feasible,
		PreScreened:   res.PreScreened,
		SubtreePruned: res.SubtreePruned,
		Top:           res.Top,
		Pareto:        res.Pareto,
	}
	if res.Found() {
		best := res.Best
		out.Best = &best
	}
	return out
}

// writeJSON writes v as indented JSON with a trailing newline to path, or
// to stdout when path is empty. The encoding (MarshalIndent, two-space
// indent, "\n") is the byte-level contract the shard-merge determinism
// checks diff against.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeOut(path, append(data, '\n'))
}

// writeJSONList writes items exactly as writeJSON would, encoding the
// elements on up to workers goroutines (GOMAXPROCS when workers ≤ 0) and
// joining them. Each element is indented one level in, as inside the
// array, so the bytes equal json.MarshalIndent(items, "", "  ") plus a
// newline. The encoding runs to the end whatever becomes of ctx: the
// result it writes is already final.
func writeJSONList[T any](ctx context.Context, path string, workers int, items []T) error {
	if len(items) == 0 {
		return writeJSON(path, items)
	}
	parts := make([][]byte, len(items))
	err := search.Pool(context.WithoutCancel(ctx), workers, len(items), func(i int) error {
		var err error
		parts[i], err = json.MarshalIndent(items[i], "  ", "  ")
		return err
	})
	if err != nil {
		return err
	}
	// "[\n", "  " before each element, ",\n" between them, "\n]\n".
	size := 5 + 4*len(parts)
	for _, p := range parts {
		size += len(p)
	}
	data := make([]byte, 0, size)
	data = append(data, "[\n"...)
	for i, p := range parts {
		if i > 0 {
			data = append(data, ",\n"...)
		}
		data = append(append(data, "  "...), p...)
	}
	return writeOut(path, append(data, "\n]\n"...))
}

// writeOut writes data to path, or to stdout when path is empty.
func writeOut(path string, data []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cmdMerge combines the partial results of a complete shard set — the files
// `calculon search -shard i/n` wrote — into exactly the single-process
// answer, in the same canonical JSON a single `calculon search -json` run
// emits.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	outPath := fs.String("o", "", "write the merged result to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge: need the shard result files, e.g. calculon merge shard-*.json")
	}
	shards := make([]search.ShardResult, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		var sr search.ShardResult
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sr); err != nil {
			return fmt.Errorf("merge: %s: not a shard result: %v", f, err)
		}
		shards = append(shards, sr)
	}
	res, err := search.MergeResults(shards)
	if err != nil {
		return err
	}
	return writeJSON(*outPath, newSearchOutput(res))
}
