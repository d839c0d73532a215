package model

import (
	"fmt"
	"sort"
)

// Preset returns one of the named LLM configurations used in the paper's
// studies (plus a few extra popular models for the example programs).
// The Megatron validation models (22B/175B/530B/1T) use the shapes from
// Megatron-LM / "Reducing Activation Recomputation" that the paper's
// Table 2 measurements were taken with.
func Preset(name string) (LLM, error) {
	m, ok := presets[name]
	if !ok {
		return LLM{}, fmt.Errorf("model: unknown preset %q (have %v)", name, PresetNames())
	}
	return m, nil
}

// MustPreset is Preset for static names in examples and tests.
func MustPreset(name string) LLM {
	m, err := Preset(name)
	if err != nil {
		panic(err)
	}
	return m
}

// PresetNames lists the available presets in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var presets = map[string]LLM{
	// Validation set of Table 2 (Selene runs). Batch sizes follow the
	// measured Megatron configurations: 22B trained with global batch 4 on
	// 8 GPUs, the others with one sample per GPU of the measured system.
	"megatron-22B": {
		Name: "megatron-22B", Hidden: 6144, AttnHeads: 64, Seq: 2048,
		Blocks: 48, Batch: 4, VocabSize: 51200,
	},
	"gpt3-175B": {
		Name: "gpt3-175B", Hidden: 12288, AttnHeads: 96, Seq: 2048,
		Blocks: 96, Batch: 64, VocabSize: 51200,
	},
	"turing-530B": {
		Name: "turing-530B", Hidden: 20480, AttnHeads: 128, Seq: 2048,
		Blocks: 105, Batch: 280, VocabSize: 51200,
	},
	"megatron-1T": {
		Name: "megatron-1T", Hidden: 25600, AttnHeads: 160, Seq: 2048,
		Blocks: 128, Batch: 512, VocabSize: 51200,
	},

	// PaLM-540B, the paper's other §1 motivating example (2,572 zettaFLOP,
	// >8M TPU-hours). Its gated MLP and multi-query attention are folded
	// into the conventional block shape at matched parameter count.
	"palm-540B": {
		Name: "palm-540B", Hidden: 18432, AttnHeads: 48, Seq: 2048,
		Blocks: 118, FeedForward: 86016, Batch: 2048, VocabSize: 262144,
	},

	// Additional models for the example programs and broader studies.
	"gpt3-6.7B": {
		Name: "gpt3-6.7B", Hidden: 4096, AttnHeads: 32, Seq: 2048,
		Blocks: 32, Batch: 1024, VocabSize: 51200,
	},
	"gpt2-1.5B": {
		Name: "gpt2-1.5B", Hidden: 1600, AttnHeads: 25, Seq: 1024,
		Blocks: 48, Batch: 512, VocabSize: 50257,
	},
	"gpt3-13B": {
		Name: "gpt3-13B", Hidden: 5120, AttnHeads: 40, Seq: 2048,
		Blocks: 40, Batch: 1024, VocabSize: 51200,
	},
	"chinchilla-70B": {
		Name: "chinchilla-70B", Hidden: 8192, AttnHeads: 64, Seq: 2048,
		Blocks: 80, Batch: 1536, VocabSize: 32000,
	},
	// LLaMa's gated MLP has three ff×h matrices of ff=22016; our block uses
	// the conventional two, so the preset carries the parameter-equivalent
	// 1.5·22016 = 33024 to keep FLOP and memory footprints faithful.
	"llama-65B": {
		Name: "llama-65B", Hidden: 8192, AttnHeads: 64, Seq: 2048,
		Blocks: 80, FeedForward: 33024, Batch: 2048, VocabSize: 32000,
	},
}

// WithBatch returns a copy of m with the global batch replaced; the studies
// frequently re-batch a preset (e.g. Megatron-1T with batch 4096 in §4.1).
func (m LLM) WithBatch(batch int) LLM {
	m.Batch = batch
	return m
}
