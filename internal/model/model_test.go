package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestKnownParameterCounts pins the derived parameter counts of the paper's
// four validation models to their marketing sizes. The transformer-block
// arithmetic (12h² + biases per block) must land within 2% of the nominal
// count, which is the accepted convention in the Megatron papers.
func TestKnownParameterCounts(t *testing.T) {
	cases := []struct {
		preset string
		want   float64
	}{
		{"megatron-22B", 22e9},
		{"gpt3-175B", 175e9},
		{"turing-530B", 530e9},
		{"megatron-1T", 1.008e12},
	}
	for _, c := range cases {
		m := MustPreset(c.preset)
		got := float64(m.Params())
		if rel := math.Abs(got-c.want) / c.want; rel > 0.02 {
			t.Errorf("%s: params = %.3g, want within 2%% of %.3g (rel %.3f)", c.preset, got, c.want, rel)
		}
	}
}

func TestBlockParamsDominatedByGEMMs(t *testing.T) {
	m := MustPreset("gpt3-175B")
	h := int64(m.Hidden)
	gemms := 12 * h * h
	bp := m.BlockParams()
	if bp < gemms {
		t.Fatalf("block params %d smaller than GEMM weights %d", bp, gemms)
	}
	if float64(bp-gemms)/float64(gemms) > 0.01 {
		t.Fatalf("non-GEMM params should be <1%% of a block, got %d vs %d", bp, gemms)
	}
}

func TestFFDefaultsTo4h(t *testing.T) {
	m := LLM{Hidden: 1024}
	if m.FF() != 4096 {
		t.Errorf("FF() = %d, want 4096", m.FF())
	}
	m.FeedForward = 2730
	if m.FF() != 2730 {
		t.Errorf("FF() override = %d, want 2730", m.FF())
	}
}

func TestLLaMaUsesCustomFF(t *testing.T) {
	m := MustPreset("llama-65B")
	if m.FF() != 33024 {
		t.Fatalf("llama FF = %d", m.FF())
	}
	got := float64(m.Params())
	if rel := math.Abs(got-65e9) / 65e9; rel > 0.05 {
		t.Errorf("llama-65B params = %.3g, want ~65e9 (rel %.3f)", got, rel)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	good := MustPreset("gpt3-175B")
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	mutations := []func(*LLM){
		func(m *LLM) { m.Hidden = 0 },
		func(m *LLM) { m.Hidden = -5 },
		func(m *LLM) { m.AttnHeads = 0 },
		func(m *LLM) { m.AttnHeads = 7 }, // 12288 % 7 != 0
		func(m *LLM) { m.Seq = 0 },
		func(m *LLM) { m.Blocks = 0 },
		func(m *LLM) { m.Batch = 0 },
		func(m *LLM) { m.FeedForward = -1 },
		func(m *LLM) { m.VocabSize = -1 },
	}
	for i, mut := range mutations {
		m := good
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestAllPresetsValid(t *testing.T) {
	for _, name := range PresetNames() {
		m := MustPreset(name)
		if err := m.Validate(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("preset %s has mismatched Name %q", name, m.Name)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestTrainFLOPsMatchesSixND(t *testing.T) {
	// The classic estimate is 6·params·tokens per sample for fwd+bwd; our
	// per-layer accounting — forward plus a backward of twice the forward,
	// without recompute — should agree within 10% for a big dense model
	// (attention-matrix FLOPs push it slightly above 6·N·T).
	m := MustPreset("megatron-1T")
	classic := 6 * float64(m.Params()) * float64(m.Seq)
	got := 3 * float64(m.Seq) * float64(m.FwdFLOPsPerToken())
	if rel := math.Abs(got-classic) / classic; rel > 0.10 {
		t.Errorf("train FLOPs %.3g vs classic %.3g (rel %.3f)", got, classic, rel)
	}
	if got < classic*0.95 {
		t.Errorf("per-layer FLOPs %.3g should not undercut 6NT %.3g noticeably", got, classic)
	}
}

func TestFLOPsScaleLinearlyInBlocks(t *testing.T) {
	f := func(rawBlocks uint8) bool {
		blocks := int(rawBlocks%32) + 1
		m := MustPreset("gpt3-13B")
		m.Blocks = blocks
		per := float64(m.FwdFLOPsPerToken()) / float64(blocks)
		m2 := m
		m2.Blocks = 2 * blocks
		return math.Abs(float64(m2.FwdFLOPsPerToken())-2*float64(blocks)*per) < 1e-3*per
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHumanParams(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{175e9, "175B"},
		{1008e9, "1T"},
		{22e9, "22B"},
		{1_500_000_000, "1.5B"},
		{345_000_000, "345M"},
		{999, "999"},
	}
	for _, c := range cases {
		if got := HumanParams(c.in); got != c.want {
			t.Errorf("HumanParams(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStringIncludesNameAndParams(t *testing.T) {
	s := MustPreset("gpt3-175B").String()
	for _, frag := range []string{"gpt3-175B", "h=12288", "175B"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestWithBatch(t *testing.T) {
	m := MustPreset("megatron-1T").WithBatch(4096)
	if m.Batch != 4096 {
		t.Fatalf("WithBatch failed: %+v", m)
	}
	if MustPreset("megatron-1T").Batch == 4096 {
		t.Fatal("WithBatch must not mutate the preset")
	}
}

func TestPaLMParameterCount(t *testing.T) {
	m := MustPreset("palm-540B")
	got := float64(m.Params())
	if rel := math.Abs(got-540e9) / 540e9; rel > 0.03 {
		t.Errorf("palm-540B params = %.4g, want ~540e9 (rel %.3f)", got, rel)
	}
}

func TestGPT367BParameterCount(t *testing.T) {
	m := MustPreset("gpt3-6.7B")
	got := float64(m.Params())
	if rel := math.Abs(got-6.7e9) / 6.7e9; rel > 0.05 {
		t.Errorf("gpt3-6.7B params = %.4g, want ~6.7e9 (rel %.3f)", got, rel)
	}
}
