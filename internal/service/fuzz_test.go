package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// servingSeed is a serving job shaped like configs/scenarios/serving-chat.json,
// so the corpus reaches the serving resolver as well as the training path.
const servingSeed = `{
  "model": {"preset": "gpt3-175B"},
  "system": {"preset": "a100-80g", "procs": 64},
  "search": {"timeout_seconds": 30},
  "serving": {
    "workload": {
      "mix": [{"prompt_len": 512, "gen_len": 128, "weight": 3}, {"prompt_len": 2048, "gen_len": 256, "weight": 1}],
      "slo": {"ttft_seconds": 10, "tpot_seconds": 0.1}
    },
    "space": {"procs": 64, "max_batch": 32, "disaggregate": true}
  }
}`

// FuzzJobSpec throws arbitrary bytes at the daemon's job intake: decode
// them into a JobSpec exactly as POST /v1/jobs does, then run the same
// prepare() that decides between 202 and 400. Every input must come back
// as a prepared job or an error — never a panic or a hang — and a prepared
// job must be runnable: exactly one engine armed, a non-negative timeout,
// and a training search that keeps at least its best result.
func FuzzJobSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "configs", "jobs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no job specs under configs/jobs")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(servingSeed))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxBodyBytes {
			return // handleSubmit's MaxBytesReader refuses these before decoding
		}
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
			return
		}
		p, err := spec.prepare()
		if err != nil {
			return
		}
		if p.timeout < 0 {
			t.Fatalf("prepared a negative timeout %v", p.timeout)
		}
		if (spec.Serving != nil) != (p.servingSpec != nil) {
			t.Fatalf("serving section %v but serving engine armed %v", spec.Serving != nil, p.servingSpec != nil)
		}
		if p.servingSpec == nil && p.opts.TopK < 1 {
			t.Fatalf("prepared a training search with top_k %d", p.opts.TopK)
		}
	})
}
