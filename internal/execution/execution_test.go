package execution

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"calculon/internal/model"
)

func gpt3() model.LLM { return model.MustPreset("gpt3-175B") }

func validBase() Strategy {
	return Strategy{
		TP: 8, PP: 8, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: RecomputeFull, TPOverlap: TPOverlapNone,
	}
}

func TestValidateAcceptsMegatronConfig(t *testing.T) {
	s, m := validBase(), gpt3()
	if err := s.Validate(&m); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// validateRuleCases are single-rule violations of validBase on gpt3()
// (heads=96, blocks=96, batch=64), with a fragment of each rule's message.
var validateRuleCases = []struct {
	name string
	mut  func(*Strategy)
	frag string
}{
	{"zero tp", func(s *Strategy) { s.TP = 0 }, "≥1"},
	{"tp beyond heads", func(s *Strategy) { s.TP = 128 }, "attention heads"},
	{"pp beyond blocks", func(s *Strategy) { s.PP = 97 }, "blocks"},
	{"dp beyond batch", func(s *Strategy) { s.DP = 65 }, "batch"},
	{"dp not dividing batch", func(s *Strategy) { s.DP = 3 }, "divide"},
	{"microbatch zero", func(s *Strategy) { s.Microbatch = 0 }, "microbatch"},
	{"microbatch beyond per-pipe", func(s *Strategy) { s.Microbatch = 65 }, "microbatch"},
	{"microbatch non-divisor", func(s *Strategy) { s.Microbatch = 3; s.DP = 2 }, "divide"},
	{"interleave beyond blocks/p", func(s *Strategy) { s.Interleave = 13 }, "interleave"},
	{"interleave without 1f1b", func(s *Strategy) { s.Interleave = 2; s.OneFOneB = false }, "1F1B"},
	{"interleave without pp", func(s *Strategy) { s.PP = 1; s.TP = 8; s.DP = 8; s.Interleave = 2 }, "pipeline"},
	{"bad recompute", func(s *Strategy) { s.Recompute = "sometimes" }, "recompute"},
	{"bad overlap", func(s *Strategy) { s.TPOverlap = "maybe" }, "overlap"},
	{"seqpar without rsag", func(s *Strategy) { s.SeqParallel = true }, "RS+AG"},
	{"redo without seqpar", func(s *Strategy) { s.TPRedoForSP = true }, "redo"},
	{"pp rsag without tp rsag", func(s *Strategy) { s.PPRSAG = true }, "RS+AG"},
	{"inference with recompute", func(s *Strategy) { s.Inference = true }, "training-only"},
	{"inference with sharding", func(s *Strategy) {
		s.Inference = true
		s.Recompute = RecomputeNone
		s.OptimSharding = true
	}, "training-only"},
}

func TestValidateRules(t *testing.T) {
	m := gpt3()
	for _, c := range validateRuleCases {
		s := validBase()
		c.mut(&s)
		err := s.Validate(&m)
		if err == nil {
			t.Errorf("%s: should fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
	}
}

func TestBlocksPerProcCeil(t *testing.T) {
	m := model.MustPreset("turing-530B") // 105 blocks
	s := Strategy{TP: 1, PP: 10, DP: 1}
	if got := s.BlocksPerProc(&m); got != 11 {
		t.Errorf("BlocksPerProc = %d, want ceil(105/10)=11", got)
	}
	s.PP = 35
	if got := s.BlocksPerProc(&m); got != 3 {
		t.Errorf("BlocksPerProc = %d, want 3", got)
	}
}

func TestBlocksPerChunk(t *testing.T) {
	m := gpt3() // 96 blocks
	s := Strategy{TP: 1, PP: 8, DP: 1, Interleave: 3}
	if got := s.BlocksPerChunk(&m); got != 4 {
		t.Errorf("BlocksPerChunk = %d, want 96/8/3=4", got)
	}
}

func TestMicrobatches(t *testing.T) {
	m := gpt3().WithBatch(512)
	s := Strategy{TP: 8, PP: 8, DP: 4, Microbatch: 2}
	if got := s.Microbatches(&m); got != 64 {
		t.Errorf("Microbatches = %d, want 512/4/2=64", got)
	}
}

func TestNormalize(t *testing.T) {
	s := Strategy{TP: 1, PP: 1, DP: 1}
	s.Normalize()
	if s.Microbatch != 1 || s.Interleave != 1 || s.Recompute != RecomputeNone || s.TPOverlap != TPOverlapNone {
		t.Fatalf("Normalize() = %+v", s)
	}
}

// divisors collects eachDivisor's divisors of n.
func divisors(n int) []int {
	var ds []int
	eachDivisor(n, func(d int) bool {
		ds = append(ds, d)
		return true
	})
	return ds
}

func TestDivisors(t *testing.T) {
	got := divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("divisors(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors(12) = %v, want %v", got, want)
		}
	}
}

// TestDivisorsProperty: eachDivisor yields every divisor of n exactly once,
// in ascending order, and countDivisors counts the ones up to a limit.
func TestDivisorsProperty(t *testing.T) {
	f := func(raw, rawLimit uint16) bool {
		n, limit := int(raw%4096)+1, int(rawLimit%64)
		ds := divisors(n)
		prev, below := 0, 0
		for _, d := range ds {
			if n%d != 0 || d <= prev {
				return false
			}
			prev = d
			if d <= limit {
				below++
			}
		}
		want := 0
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				want++
			}
		}
		if limit == 0 {
			below = want
		}
		return len(ds) == want && countDivisors(n, limit) == below
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriplesProductAndConstraints(t *testing.T) {
	m := gpt3().WithBatch(4096)
	o := EnumOptions{Procs: 4096, Features: FeatureAll}
	triples := o.Triples(m)
	if len(triples) == 0 {
		t.Fatal("no triples found")
	}
	for _, tr := range triples {
		tp, pp, dp := tr[0], tr[1], tr[2]
		if tp*pp*dp != 4096 {
			t.Fatalf("triple %v does not multiply to 4096", tr)
		}
		if tp > m.AttnHeads || pp > m.Blocks || dp > m.Batch || m.Batch%dp != 0 {
			t.Fatalf("triple %v violates constraints", tr)
		}
	}
}

func TestTriplesRespectCapsAndPins(t *testing.T) {
	m := gpt3().WithBatch(4096)
	o := EnumOptions{Procs: 4096, MaxTP: 8, FixedPP: 16}
	for _, tr := range o.Triples(m) {
		if tr[0] > 8 {
			t.Fatalf("MaxTP violated: %v", tr)
		}
		if tr[1] != 16 {
			t.Fatalf("FixedPP violated: %v", tr)
		}
	}
	o2 := EnumOptions{Procs: 64, FixedTP: 8, FixedDP: 2}
	for _, tr := range o2.Triples(m) {
		if tr[0] != 8 || tr[2] != 2 {
			t.Fatalf("pin violated: %v", tr)
		}
	}
}

// TestEnumerateAllValid is the core enumeration invariant: every generated
// strategy passes Validate for its model.
func TestEnumerateAllValid(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64) // 40 heads, 40 blocks
	for _, fs := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
		o := EnumOptions{Procs: 64, Features: fs, HasMem2: true, MaxInterleave: 4}
		n := 0
		o.Enumerate(m, func(s Strategy) bool {
			n++
			if err := s.Validate(&m); err != nil {
				t.Fatalf("%s: generated invalid strategy %v: %v", fs, s, err)
			}
			return true
		})
		if n == 0 {
			t.Fatalf("%s: enumeration produced nothing", fs)
		}
	}
}

func TestEnumerateFeatureSetOrdering(t *testing.T) {
	// The feature sets are nested: baseline ⊂ seqpar ⊂ all.
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sizes := map[FeatureSet]int{}
	for _, fs := range []FeatureSet{FeatureBaseline, FeatureSeqPar, FeatureAll} {
		o := EnumOptions{Procs: 16, Features: fs, MaxInterleave: 2}
		sizes[fs] = o.SpaceSize(m)
	}
	if !(sizes[FeatureBaseline] < sizes[FeatureSeqPar] && sizes[FeatureSeqPar] < sizes[FeatureAll]) {
		t.Fatalf("feature-set sizes not nested: %v", sizes)
	}
}

func TestEnumerateOffloadRequiresMem2(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	o := EnumOptions{Procs: 16, Features: FeatureAll, HasMem2: false, MaxInterleave: 1}
	o.Enumerate(m, func(s Strategy) bool {
		if s.WeightOffload || s.ActOffload || s.OptimOffload {
			t.Fatalf("offload strategy generated without mem2: %v", s)
		}
		return true
	})
}

func TestEnumerateEarlyStop(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	o := EnumOptions{Procs: 16, Features: FeatureAll, MaxInterleave: 1}
	n := o.Enumerate(m, func(s Strategy) bool { return false })
	if n != 1 {
		t.Fatalf("early stop should yield exactly 1, got %d", n)
	}
}

func TestEnumOptionsValidate(t *testing.T) {
	if err := (EnumOptions{Procs: 0}).Validate(); err == nil {
		t.Error("zero procs should fail")
	}
	if err := (EnumOptions{Procs: 8, Features: "bogus"}).Validate(); err == nil {
		t.Error("bogus feature set should fail")
	}
	if err := (EnumOptions{Procs: 8, Features: FeatureAll}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	for _, o := range []EnumOptions{
		{Procs: 8, MaxTP: -1}, {Procs: 8, MaxInterleave: -3},
		{Procs: 8, FixedTP: -2}, {Procs: 8, FixedPP: -2}, {Procs: 8, FixedDP: -2},
	} {
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%+v: Validate = %v, want a negative-value error", o, err)
		}
	}
}

func TestModeHelpers(t *testing.T) {
	if TPOverlapNone.HiddenFraction() != 0 {
		t.Error("none must hide nothing")
	}
	if !(TPOverlapPipe.HiddenFraction() > 0 && TPOverlapRing.HiddenFraction() > TPOverlapPipe.HiddenFraction()) {
		t.Error("ring must hide more than pipe, pipe more than none")
	}
	if RecomputeMode("x").Valid() || TPOverlapMode("y").Valid() || FeatureSet("z").Valid() {
		t.Error("bogus modes must be invalid")
	}
}

func TestStringContainsDegrees(t *testing.T) {
	s := validBase().String()
	for _, frag := range []string{"t=8", "p=8", "d=1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestInferenceRejectsTrainingOffload(t *testing.T) {
	s := validBase()
	s.Recompute = RecomputeNone
	s.Inference = true
	s.WeightOffload = true
	m := gpt3()
	if err := s.Validate(&m); err == nil {
		t.Error("weight offload must be rejected for inference")
	}
	s.WeightOffload = false
	s.ActOffload = true
	if err := s.Validate(&m); err == nil {
		t.Error("activation offload must be rejected for inference")
	}
}

// shapeFields are the Strategy fields ValidateShape reads.
var shapeFields = []string{"TP", "PP", "DP", "Microbatch", "Interleave", "OneFOneB"}

// TestValidateSplit pins Validate as the composition of its two halves,
// which a chain relies on when it re-checks only the toggle rules of a
// strategy in the memory class of an already-validated one. Over
// enumerated strategies, random single-field mutations of them (valid and
// not), and every TestValidateRules case, it checks that Validate returns
// the shape rules' error when they fail and exactly the toggle rules'
// result when they pass, and that the shape rules read nothing outside
// shapeFields.
func TestValidateSplit(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	o := EnumOptions{Procs: 64, Features: FeatureAll, HasMem2: true, MaxInterleave: 4}
	var enum []Strategy
	o.Enumerate(m, func(s Strategy) bool {
		enum = append(enum, s)
		return true
	})
	rng := rand.New(rand.NewSource(5))
	ints := []int{-1, 0, 1, 2, 3, 4, 8, 16, 40, 64, 65}
	mutate := func(s Strategy) Strategy {
		switch rng.Intn(9) {
		case 0:
			s.TP = ints[rng.Intn(len(ints))]
		case 1:
			s.PP = ints[rng.Intn(len(ints))]
		case 2:
			s.DP = ints[rng.Intn(len(ints))]
		case 3:
			s.Microbatch = ints[rng.Intn(len(ints))]
		case 4:
			s.Interleave = ints[rng.Intn(len(ints))]
		case 5:
			s.Recompute = []RecomputeMode{RecomputeNone, RecomputeAttn, RecomputeFull, "bogus"}[rng.Intn(4)]
		case 6:
			s.TPOverlap = []TPOverlapMode{TPOverlapNone, TPOverlapPipe, TPOverlapRing, "bogus"}[rng.Intn(4)]
		default:
			// Flip one of the boolean fields.
			bs := []*bool{&s.OneFOneB, &s.SeqParallel, &s.TPRSAG, &s.TPRedoForSP, &s.DPOverlap,
				&s.PPRSAG, &s.OptimSharding, &s.FusedLayers, &s.WeightOffload, &s.ActOffload,
				&s.OptimOffload, &s.Inference}
			b := bs[rng.Intn(len(bs))]
			*b = !*b
		}
		return s
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	check := func(label string, s Strategy, m *model.LLM) {
		t.Helper()
		full := errText(s.Validate(m))
		want := errText(s.ValidateShape(m))
		if want == "<nil>" {
			want = errText(s.ValidateToggles())
		}
		if full != want {
			t.Fatalf("%s %+v: Validate = %s, shape then toggles = %s", label, s, full, want)
		}
		// The shape verdict must not depend on any field outside
		// shapeFields: graft another strategy's toggles onto this shape.
		g := enum[rng.Intn(len(enum))]
		gv, sv := reflect.ValueOf(&g).Elem(), reflect.ValueOf(s)
		for _, f := range shapeFields {
			gv.FieldByName(f).Set(sv.FieldByName(f))
		}
		if a, b := errText(s.ValidateShape(m)), errText(g.ValidateShape(m)); a != b {
			t.Fatalf("%s %+v: ValidateShape reads toggles: %s vs %s for %+v", label, s, a, b, g)
		}
	}

	shapeFails, toggleFails := 0, 0
	for i := 0; i < 2000; i++ {
		s := enum[rng.Intn(len(enum))]
		check("enumerated", s, &m)
		for cur, k := s, 0; k < 3; k++ {
			cur = mutate(cur)
			check("mutated", cur, &m)
			switch {
			case cur.ValidateShape(&m) != nil:
				shapeFails++
			case cur.ValidateToggles() != nil:
				toggleFails++
			}
		}
	}
	if shapeFails == 0 || toggleFails == 0 {
		t.Fatalf("mutations reached %d shape and %d toggle failures; want both", shapeFails, toggleFails)
	}

	g := gpt3()
	for _, c := range validateRuleCases {
		s := validBase()
		c.mut(&s)
		check(c.name, s, &g)
		err := s.ValidateShape(&g)
		if err == nil {
			err = s.ValidateToggles()
		}
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: shape then toggles = %v, want an error with %q", c.name, err, c.frag)
		}
	}
}
