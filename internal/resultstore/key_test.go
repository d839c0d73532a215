package resultstore

import (
	"encoding/json"
	"fmt"
	"testing"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// normalizedOpts builds search options exactly as search.Execution
// normalizes them before consulting the cache: Procs defaulted from the
// system, Features defaulted, HasMem2 derived. The key contract only holds
// for normalized options, so every test goes through this.
func normalizedOpts(sys system.System) search.Options {
	return search.Options{
		Enum: execution.EnumOptions{
			Procs:    sys.Procs,
			Features: execution.FeatureAll,
			HasMem2:  sys.Mem2.Present(),
		},
		TopK: 1,
	}
}

// TestKeyIgnoresDeltaAndScheduling: options proven result-AND-counter
// neutral must not reach the key — every search evaluates on delta chains,
// and a verdict computed under any worker count or progress attachment is
// the same search and must hit the same rows.
func TestKeyIgnoresDeltaAndScheduling(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(64)
	base, err := Key(m, sys, normalizedOpts(sys))
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*search.Options){
		func(o *search.Options) { o.Workers = 7 },
		func(o *search.Options) { o.Progress = &search.Progress{} },
	} {
		o := normalizedOpts(sys)
		mutate(&o)
		k, err := Key(m, sys, o)
		if err != nil {
			t.Fatal(err)
		}
		if k != base {
			t.Errorf("result-neutral option changed the key: %s vs %s", k, base)
		}
	}
}

// TestKeyStableAcrossFieldOrder: the canonical hash must not depend on the
// field order of the JSON files the inputs were loaded from. Two spellings
// of the same model with fields in opposite orders must map to one key.
func TestKeyStableAcrossFieldOrder(t *testing.T) {
	spellings := []string{
		`{"name":"tiny","hidden":1024,"attn_heads":16,"seq":2048,"blocks":24,"batch":512,"vocab":51200}`,
		`{"vocab":51200,"batch":512,"blocks":24,"seq":2048,"attn_heads":16,"hidden":1024,"name":"tiny"}`,
		"{\n  \"batch\": 512,\n  \"name\": \"tiny\",\n  \"seq\": 2048,\n  \"blocks\": 24,\n  \"vocab\": 51200,\n  \"hidden\": 1024,\n  \"attn_heads\": 16\n}",
	}
	sys := system.A100(64)
	keys := make(map[string]bool)
	for i, s := range spellings {
		var m model.LLM
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		k, err := Key(m, sys, normalizedOpts(sys))
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		keys[k] = true
	}
	if len(keys) != 1 {
		t.Fatalf("three spellings of one model produced %d distinct keys: %v", len(keys), keys)
	}
}

// TestKeyStableAcrossMapIteration routes the system config through
// map[string]any — whose iteration order Go randomizes per run — and back
// before hashing, many times. encoding/json sorts map keys on marshal, so
// every pass must land on the direct-decode key; a drift here would mean
// the hash depends on an iteration order the runtime does not promise.
func TestKeyStableAcrossMapIteration(t *testing.T) {
	raw, err := json.Marshal(system.A100(256))
	if err != nil {
		t.Fatal(err)
	}
	var direct system.System
	if err := json.Unmarshal(raw, &direct); err != nil {
		t.Fatal(err)
	}
	m := model.MustPreset("gpt3-13B")
	want, err := Key(m, direct, normalizedOpts(direct))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var loose map[string]any
		if err := json.Unmarshal(raw, &loose); err != nil {
			t.Fatal(err)
		}
		reencoded, err := json.Marshal(loose)
		if err != nil {
			t.Fatal(err)
		}
		var sys system.System
		if err := json.Unmarshal(reencoded, &sys); err != nil {
			t.Fatal(err)
		}
		got, err := Key(m, sys, normalizedOpts(sys))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pass %d: key drifted after a map round-trip: %s != %s", i, got, want)
		}
	}
}

// TestKeyGoldenShippedConfigs pins the canonical hash of every shipped
// model config against both shipped systems. These hex values are part of
// the on-disk cache contract: a change here silently orphans every store
// file in the field, so it must be a conscious decision (bump
// StrategySpaceVersion) — not an accident of reordering a struct field,
// renaming a JSON tag, or tweaking the encoder.
func TestKeyGoldenShippedConfigs(t *testing.T) {
	golden := map[string]string{
		"chinchilla-70B/a100-80g":        "4d55ca6036bb5a077565424a0afea490101ff3deaf33c336f83bc5bbc0621a9a",
		"chinchilla-70B/h100-80g-ddr512": "1f56dad56897b3fff654f2ca7573a7dd3a1ff154a921e225d743250a1b9021b4",
		"gpt2-1.5B/a100-80g":             "240520c997cc6cfbf213004fc60a343f42f01e5b5ac49ed6daa7a622516d8b04",
		"gpt2-1.5B/h100-80g-ddr512":      "a5e58732f45a5fa45d7d2b0531e8d540da8718c6319beba368b4fb46568d0e79",
		"gpt3-13B/a100-80g":              "9f9c4f7e534275b2b8fb3dd760762f7c3d944eb4fbeaaa00abcff0a73b866ab4",
		"gpt3-13B/h100-80g-ddr512":       "256d5fb2776835c993e5e1680194da52831e4cda32beef0422a18989c4b2a99a",
		"gpt3-175B/a100-80g":             "87bbb5d6db4fca6c2b4159baac09bb80160ef76181e68108cd952bf020979423",
		"gpt3-175B/h100-80g-ddr512":      "37b01755c2f08c569af9a1e74fb880def46caaa8bb92760b4e14cb9da6317eec",
		"gpt3-6.7B/a100-80g":             "fc917a43decf822339ff4f25756e8df67fbbb82a0247cd9199d86aad8e5c3b39",
		"gpt3-6.7B/h100-80g-ddr512":      "20166a9fbfac0069c48f272c9ec6ffbc7934b15f166e8f59b5b35eb7347d17b4",
		"llama-65B/a100-80g":             "5f8842eeb6bae85b8dbb8e2a2d44a06d268472513d56f18160406a18f21bb774",
		"llama-65B/h100-80g-ddr512":      "b90769354aca278eba15ab0e372ee95860b23fb65ed9d2fd3881985627cbbc24",
		"megatron-1T/a100-80g":           "282c18a32f8f07ba8e7ce084953955c2cf0434517331d7cd66881657a831c3c4",
		"megatron-1T/h100-80g-ddr512":    "796025ead1e7ef9bbb36be9927a384934b6dbb0e5ce9965b952b048fd6bad259",
		"megatron-22B/a100-80g":          "73a12b5f36f383b545ccc7b933b10a1fc4b4fde3c0727a797142192958561f26",
		"megatron-22B/h100-80g-ddr512":   "833c88eeee51ef1d6104e21572085101bd9a49f08224f60b687641916d067141",
		"palm-540B/a100-80g":             "b5f34a995e56fe829becc6dd4e4a4e9cd7cedb53507e3b0e765ef612862e274d",
		"palm-540B/h100-80g-ddr512":      "949993af8690ef0f469d5843cd0b655e2e05827f104435e99f47f2945c1e3f76",
		"turing-530B/a100-80g":           "00014b01a47fb4f339ab25da3697bd280f190ec0601aeb9c2cfc2d6eec834769",
		"turing-530B/h100-80g-ddr512":    "dac5dea9ded6cdc0a2e8c5abee17f7fdc92ea1df0517e120e61a1aa7fa37c4fc",
	}
	for _, mc := range []string{
		"chinchilla-70B", "gpt2-1.5B", "gpt3-13B", "gpt3-175B", "gpt3-6.7B",
		"llama-65B", "megatron-1T", "megatron-22B", "palm-540B", "turing-530B",
	} {
		m, err := config.Load[model.LLM]("../../configs/models/" + mc + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []string{"a100-80g", "h100-80g-ddr512"} {
			sys, err := config.Load[system.System]("../../configs/systems/" + sc + ".json")
			if err != nil {
				t.Fatal(err)
			}
			got, err := Key(m, sys, normalizedOpts(sys))
			if err != nil {
				t.Fatal(err)
			}
			name := mc + "/" + sc
			if want := golden[name]; got != want {
				t.Errorf("%s: key %s, want %s (a deliberate semantic change must bump StrategySpaceVersion instead)",
					name, got, want)
			}
		}
	}
}

// TestKeyNoCollisions hashes a corpus of single-field perturbations around
// a base search and requires every distinct input to land on a distinct
// key. This is the other half of the golden test: stability for identical
// inputs, separation for different ones — in particular that no
// result-affecting field was accidentally dropped from the payload.
func TestKeyNoCollisions(t *testing.T) {
	baseM := model.MustPreset("gpt3-13B")
	baseSys := system.A100(64)
	seen := make(map[string]string) // key -> description of the input

	add := func(desc string, m model.LLM, sys system.System, opts search.Options) {
		t.Helper()
		k, err := Key(m, sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("collision: %q and %q share key %s", prev, desc, k)
		}
		seen[k] = desc
	}

	add("base", baseM, baseSys, normalizedOpts(baseSys))
	for _, batch := range []int{8, 16, 512, 3072} {
		add(fmt.Sprintf("batch=%d", batch), baseM.WithBatch(batch), baseSys, normalizedOpts(baseSys))
	}
	for _, preset := range []string{"gpt2-1.5B", "megatron-22B", "chinchilla-70B", "turing-530B"} {
		add("model="+preset, model.MustPreset(preset), baseSys, normalizedOpts(baseSys))
	}
	perturbed := baseM
	perturbed.Seq *= 2
	add("seq*2", perturbed, baseSys, normalizedOpts(baseSys))

	for _, procs := range []int{8, 16, 128, 4096} {
		sys := system.A100(procs)
		add(fmt.Sprintf("procs=%d", procs), baseM, sys, normalizedOpts(sys))
	}
	shrunk := baseSys.WithMem1Capacity(baseSys.Mem1.Capacity / 2)
	add("mem1/2", baseM, shrunk, normalizedOpts(shrunk))
	withDDR := baseSys.WithMem2(system.DDR5(512 * units.GiB))
	add("mem2=ddr512", baseM, withDDR, normalizedOpts(withDDR))
	h100 := system.H100(64, 80*units.GiB, 512*units.GiB)
	add("h100", baseM, h100, normalizedOpts(h100))

	for _, f := range []execution.FeatureSet{execution.FeatureBaseline, execution.FeatureSeqPar} {
		o := normalizedOpts(baseSys)
		o.Enum.Features = f
		add("features="+string(f), baseM, baseSys, o)
	}
	for _, tp := range []int{4, 8, 32} {
		o := normalizedOpts(baseSys)
		o.Enum.MaxTP = tp
		add(fmt.Sprintf("maxtp=%d", tp), baseM, baseSys, o)
	}
	for _, il := range []int{1, 2, 4} {
		o := normalizedOpts(baseSys)
		o.Enum.MaxInterleave = il
		add(fmt.Sprintf("interleave=%d", il), baseM, baseSys, o)
	}
	{
		o := normalizedOpts(baseSys)
		o.Enum.PinBeneficial = true
		add("pin-beneficial", baseM, baseSys, o)
	}
	for _, k := range []int{2, 5, 10} {
		o := normalizedOpts(baseSys)
		o.TopK = k
		add(fmt.Sprintf("topk=%d", k), baseM, baseSys, o)
	}
	{
		o := normalizedOpts(baseSys)
		o.Pareto = true
		add("pareto", baseM, baseSys, o)
	}
	// Scheduling and observability knobs must NOT change the identity: a
	// sweep sharded across machines with different worker counts has to hit
	// the rows a single machine wrote.
	o := normalizedOpts(baseSys)
	o.Workers = 7
	o.Progress = &search.Progress{}
	k, err := Key(baseM, baseSys, o)
	if err != nil {
		t.Fatal(err)
	}
	if seen[k] != "base" {
		t.Fatalf("worker/progress knobs changed the key (landed on %q, want \"base\")", seen[k])
	}
}
