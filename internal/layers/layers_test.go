package layers

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"calculon/internal/model"
	"calculon/internal/units"
)

func gpt3() model.LLM { return model.MustPreset("gpt3-175B") }

// TestActivationClosedFormNoParallelism pins the per-layer accounting to the
// published closed form: with fp16 and t=1 a block stores exactly
// 34·s·b·h + 5·a·s²·b bytes of activations.
func TestActivationClosedFormNoParallelism(t *testing.T) {
	m := gpt3()
	for _, b := range []int{1, 2, 4} {
		tot := Sum(Block(m, Shard{TP: 1, Microbatch: b}))
		s, h, a := float64(m.Seq), float64(m.Hidden), float64(m.AttnHeads)
		want := 34*s*float64(b)*h + 5*a*s*s*float64(b)
		if got := float64(tot.ActBytes); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("b=%d: act bytes = %g, want 34sbh+5as²b = %g", b, got, want)
		}
		wantSq := 5 * a * s * s * float64(b)
		if got := float64(tot.SqActBytes); math.Abs(got-wantSq)/wantSq > 1e-9 {
			t.Errorf("b=%d: sq act bytes = %g, want 5as²b = %g", b, got, wantSq)
		}
	}
}

// TestActivationClosedFormTP pins the tensor-parallel form:
// sbh(10 + 24/t) + 5as²b/t — ten sbh replicated on the residual path.
func TestActivationClosedFormTP(t *testing.T) {
	m := gpt3()
	s, h, a := float64(m.Seq), float64(m.Hidden), float64(m.AttnHeads)
	for _, tp := range []int{2, 4, 8} {
		tot := Sum(Block(m, Shard{TP: tp, Microbatch: 1}))
		ft := float64(tp)
		want := s*h*(10+24/ft) + 5*a*s*s/ft
		if got := float64(tot.ActBytes); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("t=%d: act bytes = %g, want %g", tp, got, want)
		}
	}
}

// TestActivationClosedFormSeqParallel pins the fully sharded form:
// (34sbh + 5as²b)/t when sequence parallelism and TP-redo are both on.
func TestActivationClosedFormSeqParallel(t *testing.T) {
	m := gpt3()
	s, h, a := float64(m.Seq), float64(m.Hidden), float64(m.AttnHeads)
	for _, tp := range []int{2, 4, 8} {
		tot := Sum(Block(m, Shard{TP: tp, Microbatch: 1, SeqParallel: true, TPRedo: true}))
		want := (34*s*h + 5*a*s*s) / float64(tp)
		if got := float64(tot.ActBytes); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("t=%d: act bytes = %g, want (34sbh+5as²b)/t = %g", tp, got, want)
		}
	}
}

// TestSeqParallelWithoutRedoKeepsGatheredInputs verifies that without the
// TP-redo optimization the two GEMM inputs stay full-sequence:
// sbh(4 + 6/t + 24/t') where the 4sbh are the gathered QKV/fc1 inputs.
func TestSeqParallelWithoutRedo(t *testing.T) {
	m := gpt3()
	s, h, a := float64(m.Seq), float64(m.Hidden), float64(m.AttnHeads)
	tp := 8.0
	tot := Sum(Block(m, Shard{TP: 8, Microbatch: 1, SeqParallel: true}))
	// full form: everything /t except the two stored GEMM inputs (2sbh each)
	want := (34*s*h+5*a*s*s)/tp + 2*(2*s*h)*(1-1/tp)
	if got := float64(tot.ActBytes); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("act bytes = %g, want %g", got, want)
	}
}

func TestBlockWeightsMatchModel(t *testing.T) {
	for _, name := range []string{"gpt3-175B", "megatron-1T", "llama-65B"} {
		m := model.MustPreset(name)
		tot := Sum(Block(m, Shard{TP: 1, Microbatch: 1}))
		want := float64(m.BlockParams())
		if got := tot.Params(); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%s: block params = %g, want %g", name, got, want)
		}
	}
}

func TestWeightsShardByTP(t *testing.T) {
	m := gpt3()
	w1 := Sum(Block(m, Shard{TP: 1, Microbatch: 1})).WeightBytes
	w8 := Sum(Block(m, Shard{TP: 8, Microbatch: 1})).WeightBytes
	// GEMM weights (≈ all of them) shard by 8; LN params replicate.
	ratio := float64(w1) / float64(w8)
	if ratio < 7.5 || ratio > 8.1 {
		t.Errorf("weight shard ratio = %g, want ≈8", ratio)
	}
}

func TestFwdFLOPsMatchClosedForm(t *testing.T) {
	// Matrix FLOPs per block at t=1: 24bsh² + 4bs²h (GEMMs + attention).
	m := gpt3()
	b, s, h := 4.0, float64(m.Seq), float64(m.Hidden)
	tot := Sum(Block(m, Shard{TP: 1, Microbatch: 4}))
	want := 24*b*s*h*h + 4*b*s*s*h
	if got := float64(tot.FwdMatrixFLOPs); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("fwd matrix flops = %g, want %g", got, want)
	}
}

func TestBwdFLOPsTwiceFwdForGEMMs(t *testing.T) {
	tot := Sum(Block(gpt3(), Shard{TP: 4, Microbatch: 2}))
	if got, want := float64(tot.BwdMatrixFLOPs), 2*float64(tot.FwdMatrixFLOPs); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("bwd matrix flops = %g, want 2×fwd = %g", got, want)
	}
}

func TestMatrixFLOPsShardByTP(t *testing.T) {
	m := gpt3()
	f := func(rawTP uint8) bool {
		tp := []int{1, 2, 4, 8, 16, 32}[rawTP%6]
		f1 := float64(Sum(Block(m, Shard{TP: 1, Microbatch: 1})).FwdMatrixFLOPs)
		ft := float64(Sum(Block(m, Shard{TP: tp, Microbatch: 1})).FwdMatrixFLOPs)
		return math.Abs(ft-f1/float64(tp))/(f1/float64(tp)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnevenTPShardsUseCeil(t *testing.T) {
	// turing-530B has 128 heads; t=24 does not divide them: the busiest
	// processor carries ceil(128/24)=6 heads, more than 128/24≈5.33.
	m := model.MustPreset("turing-530B")
	even := float64(Sum(Block(m, Shard{TP: 32, Microbatch: 1})).FwdMatrixFLOPs)   // 4 heads
	uneven := float64(Sum(Block(m, Shard{TP: 24, Microbatch: 1})).FwdMatrixFLOPs) // 6 heads
	if uneven <= even {
		t.Errorf("uneven shard (t=24) should carry more work than t=32: %g vs %g", uneven, even)
	}
	ideal24 := float64(Sum(Block(m, Shard{TP: 1, Microbatch: 1})).FwdMatrixFLOPs) / 24
	if uneven <= ideal24 {
		t.Errorf("ceil sharding must exceed the ideal 1/24 share")
	}
}

func TestFusedLayersDropTrafficAndMasks(t *testing.T) {
	m := gpt3()
	plain := Sum(Block(m, Shard{TP: 8, Microbatch: 1}))
	fused := Sum(Block(m, Shard{TP: 8, Microbatch: 1, Fused: true}))
	if !(fused.FwdTraffic < plain.FwdTraffic) {
		t.Error("fusion must reduce forward traffic")
	}
	if !(fused.ActBytes < plain.ActBytes) {
		t.Error("fusion must reduce stored activations")
	}
	// FLOPs are unchanged — the math still happens, inline.
	if fused.FwdMatrixFLOPs != plain.FwdMatrixFLOPs || fused.FwdVectorFLOPs != plain.FwdVectorFLOPs {
		t.Error("fusion must not change FLOPs")
	}
}

func TestInferenceDropsBackward(t *testing.T) {
	tot := Sum(Block(gpt3(), Shard{TP: 8, Microbatch: 1, Inference: true}))
	if tot.BwdMatrixFLOPs != 0 || tot.BwdVectorFLOPs != 0 || tot.BwdTraffic != 0 || tot.ActBytes != 0 {
		t.Errorf("inference totals must have no backward state: %+v", tot)
	}
	if tot.FwdMatrixFLOPs == 0 {
		t.Error("inference keeps forward work")
	}
}

func TestBlockInputBytes(t *testing.T) {
	m := gpt3()
	got := BlockInputBytes(m, Shard{TP: 8, Microbatch: 2})
	want := units.Bytes(2*m.Seq*m.Hidden) * 2
	if got != want {
		t.Errorf("BlockInputBytes = %v, want %v", got, want)
	}
	sp := BlockInputBytes(m, Shard{TP: 8, Microbatch: 2, SeqParallel: true})
	if sp != want/8 {
		t.Errorf("seq-parallel boundary = %v, want %v", sp, want/8)
	}
}

func TestDefaultsAppliedForZeroShard(t *testing.T) {
	m := gpt3()
	a := Sum(Block(m, Shard{}))
	b := Sum(Block(m, Shard{TP: 1, Microbatch: 1}))
	if a != b {
		t.Error("zero Shard must behave as TP=1, Microbatch=1")
	}
}

func TestLayerOrderingAndNames(t *testing.T) {
	ls := Block(gpt3(), Shard{TP: 1, Microbatch: 1})
	wantOrder := []string{
		"attn_ln", "attn_qkv", "attn_scores", "attn_softmax", "attn_dropout",
		"attn_av", "attn_proj", "attn_resid",
		"mlp_ln", "mlp_fc1", "mlp_gelu", "mlp_fc2", "mlp_resid",
	}
	if len(ls) != len(wantOrder) {
		t.Fatalf("got %d layers, want %d", len(ls), len(wantOrder))
	}
	for i, l := range ls {
		if l.Name != wantOrder[i] {
			t.Errorf("layer %d = %s, want %s", i, l.Name, wantOrder[i])
		}
	}
}

func TestAttnGroupMembership(t *testing.T) {
	want := map[string]bool{
		"attn_scores": true, "attn_softmax": true, "attn_dropout": true, "attn_av": true,
	}
	for _, l := range Block(gpt3(), Shard{TP: 1, Microbatch: 1}) {
		if l.AttnGroup != want[l.Name] {
			t.Errorf("layer %s AttnGroup = %v, want %v", l.Name, l.AttnGroup, want[l.Name])
		}
	}
}

func TestGatheredInputMarking(t *testing.T) {
	for _, l := range Block(gpt3(), Shard{TP: 8, Microbatch: 1, SeqParallel: true}) {
		wantGathered := l.Name == "attn_qkv" || l.Name == "mlp_fc1"
		if l.GatheredInput != wantGathered {
			t.Errorf("layer %s GatheredInput = %v, want %v", l.Name, l.GatheredInput, wantGathered)
		}
	}
	for _, l := range Block(gpt3(), Shard{TP: 8, Microbatch: 1}) {
		if l.GatheredInput {
			t.Errorf("layer %s should not be marked gathered without seq parallelism", l.Name)
		}
	}
}

func TestEngineString(t *testing.T) {
	if Matrix.String() != "matrix" || Vector.String() != "vector" {
		t.Error("Engine.String mismatch")
	}
}

func TestSqActNeverExceedsAct(t *testing.T) {
	f := func(rawTP, rawB uint8) bool {
		tp := int(rawTP%16) + 1
		b := int(rawB%8) + 1
		for _, l := range Block(gpt3(), Shard{TP: tp, Microbatch: b}) {
			if l.SqActBytes > l.ActBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalsScaleLinearlyInMicrobatch(t *testing.T) {
	m := gpt3()
	t1 := Sum(Block(m, Shard{TP: 8, Microbatch: 1}))
	t4 := Sum(Block(m, Shard{TP: 8, Microbatch: 4}))
	if math.Abs(float64(t4.FwdMatrixFLOPs)-4*float64(t1.FwdMatrixFLOPs)) > 1e-6*float64(t1.FwdMatrixFLOPs) {
		t.Error("matrix FLOPs must scale linearly in microbatch")
	}
	if math.Abs(float64(t4.ActBytes)-4*float64(t1.ActBytes)) > 1e-6*float64(t1.ActBytes) {
		t.Error("activations must scale linearly in microbatch")
	}
	if t4.WeightBytes != t1.WeightBytes {
		t.Error("weights must not depend on microbatch")
	}
}

// TestAppendBlockReusesBuffer: AppendBlock appends exactly Block's graph
// after what dst holds, leaving those layers alone (fusion included), and a
// buffer with room for a graph builds the next one without allocating.
func TestAppendBlockReusesBuffer(t *testing.T) {
	m := gpt3()
	sh := Shard{TP: 2, Microbatch: 2, SeqParallel: true, Fused: true}
	prefix := Block(m, Shard{TP: 1, Microbatch: 1})
	kept := append([]Layer(nil), prefix...)
	got := AppendBlock(prefix, &m, sh)
	if !reflect.DeepEqual(got[:len(kept)], kept) {
		t.Error("AppendBlock changed the layers already in the buffer")
	}
	if !reflect.DeepEqual(got[len(kept):], Block(m, sh)) {
		t.Error("AppendBlock appended a graph other than Block's")
	}
	buf := AppendBlock(nil, &m, sh)
	if n := testing.AllocsPerRun(10, func() { buf = AppendBlock(buf[:0], &m, sh) }); n != 0 {
		t.Errorf("rebuilding a graph into a reused buffer allocated %v times, want 0", n)
	}
}
