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
// to stdout when path is empty. The encoding (MarshalIndent's bytes,
// two-space indent, "\n") is the byte-level contract the shard-merge
// determinism checks diff against.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeOut(path, append(appendIndent(make([]byte, 0, 2*len(data)), data, 0), '\n'))
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
	err := search.Pool(context.WithoutCancel(ctx), workers, len(items), func(_, i int) error {
		data, err := json.Marshal(items[i])
		if err != nil {
			return err
		}
		parts[i] = appendIndent(make([]byte, 0, 2*len(data)), data, 1)
		return nil
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

// appendIndent appends src, compact JSON as json.Marshal writes it, to dst
// indented as json.Indent indents it with a prefix of depth two-space
// levels and a two-space indent: a newline and the indentation after the
// opening bracket of a non-empty object or array, after each comma and
// before each closing bracket, and a space after each colon; "{}" and "[]"
// stay as they are. It is one pass: the runs between those bytes are copied
// whole, and string bodies, escapes included, are skipped.
func appendIndent(dst, src []byte, depth int) []byte {
	run := 0 // the first byte not yet copied
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if c := src[i+1]; c == '}' || c == ']' {
				i++
				continue
			}
			depth++
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case '}', ']':
			depth--
			dst = newline(append(dst, src[run:i]...), depth)
			run = i
		case ',':
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
		}
	}
	return append(dst, src[run:]...)
}

// newline appends a newline and depth two-space indents.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, "  "...)
	}
	return dst
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
