package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// maxFuzzShards bounds how many shard partials one fuzz input may decode
// into; a merge's cost grows with it, and the interesting inputs are small
// shard sets.
const maxFuzzShards = 8

// FuzzMergeShards throws arbitrary bytes at `calculon merge`: the input is
// a stream of JSON values, each decoded into a ShardResult exactly as the
// CLI decodes a shard file (unknown fields rejected), and the decoded
// partials go to MergeResults together. Shard partials come from other
// machines, so every input must come back as a merged result or an error —
// never a panic or a hang — and a merged result must honor the top-K bound.
// The corpus is seeded with the three partials of a small 3-way sharded
// search, alone and as the complete set (also with a negative top-K). The
// search keeps only its best result, so each partial is about 1.3 KB of
// compact JSON: the fuzzer minimizes every new input it finds, at a cost
// quadratic in its length, and seeds of tens of KB keep it minimizing for
// the whole run. Top-K and the front are a mutated "top_k" or "pareto"
// away.
func FuzzMergeShards(f *testing.F) {
	m := model.MustPreset("gpt2-1.5B").WithBatch(8)
	sys := system.A100(4)
	opts := Options{
		Enum: execution.EnumOptions{Features: execution.FeatureBaseline, PinBeneficial: true},
	}
	var all []byte
	for i := 0; i < 3; i++ {
		sr, err := ExecutionShard(context.Background(), m, sys, opts, Shard{Index: i, Count: 3})
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(sr)
		if err != nil {
			f.Fatal(err)
		}
		data = append(data, '\n')
		f.Add(data)
		all = append(all, data...)
	}
	f.Add(all)
	// A negative top-K once panicked the fold.
	neg := bytes.ReplaceAll(all, []byte(`"top_k":0`), []byte(`"top_k":-1`))
	if bytes.Equal(neg, all) {
		f.Fatal("the seed partials carry no top_k to negate")
	}
	f.Add(neg)

	f.Fuzz(func(t *testing.T, data []byte) {
		var shards []ShardResult
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		for len(shards) < maxFuzzShards {
			var sr ShardResult
			err := dec.Decode(&sr)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return // the CLI refuses the file: "not a shard result"
			}
			shards = append(shards, sr)
		}
		res, err := MergeResults(shards)
		if err != nil {
			return
		}
		if k := shards[0].TopK; len(res.Top) > k {
			t.Fatalf("merged top-%d holds %d results", k, len(res.Top))
		}
	})
}
