package pipesim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"calculon/internal/units"
)

func sim(t *testing.T, p Params) Result {
	t.Helper()
	r, err := Simulate(p)
	if err != nil {
		t.Fatalf("Simulate(%+v): %v", p, err)
	}
	return r
}

// TestSingleStageHasNoBubble: p=1 is just sequential compute.
func TestSingleStageHasNoBubble(t *testing.T) {
	r := sim(t, Params{Stages: 1, Chunks: 1, Microbatches: 8,
		FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
	if math.Abs(float64(r.Makespan-24)) > 1e-9 {
		t.Errorf("makespan = %v, want 24", r.Makespan)
	}
	if math.Abs(float64(r.Bubble)) > 1e-9 {
		t.Errorf("bubble = %v, want 0", r.Bubble)
	}
	if r.PeakInFlight != 1 {
		t.Errorf("peak in flight = %d, want 1", r.PeakInFlight)
	}
}

// TestOneFOneBBubbleClosedForm pins the textbook result: with zero hop cost
// and n ≥ p, the 1F1B bubble is exactly (p−1)(tf+tb).
func TestOneFOneBBubbleClosedForm(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{8, 16, 32} {
			if n < p {
				continue
			}
			r := sim(t, Params{Stages: p, Chunks: 1, Microbatches: n,
				FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
			want := units.Seconds(float64(p-1) * 3)
			if math.Abs(float64(r.Bubble-want)) > 1e-9 {
				t.Errorf("p=%d n=%d: bubble = %v, want %v", p, n, r.Bubble, want)
			}
		}
	}
}

// TestGPipeMatchesOneFOneBMakespan: for a uniform pipeline with zero hop
// cost, GPipe and 1F1B have the same makespan — only memory differs.
func TestGPipeMatchesOneFOneBMakespan(t *testing.T) {
	g := sim(t, Params{Stages: 4, Chunks: 1, Microbatches: 16,
		FwdChunk: 1, BwdChunk: 2, Schedule: GPipe})
	o := sim(t, Params{Stages: 4, Chunks: 1, Microbatches: 16,
		FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
	if math.Abs(float64(g.Makespan-o.Makespan)) > 1e-9 {
		t.Errorf("GPipe %v vs 1F1B %v", g.Makespan, o.Makespan)
	}
}

// TestGPipeHoldsAllMicrobatches vs 1F1B holding ≈p: the memory rationale
// for 1F1B (Table 1's "PP 1F1B schedule: Mem cap ↓↓").
func TestInFlightActivations(t *testing.T) {
	p, n := 4, 16
	g := sim(t, Params{Stages: p, Chunks: 1, Microbatches: n,
		FwdChunk: 1, BwdChunk: 2, Schedule: GPipe})
	if g.PeakInFlight != n {
		t.Errorf("GPipe peak in flight = %d, want n = %d", g.PeakInFlight, n)
	}
	o := sim(t, Params{Stages: p, Chunks: 1, Microbatches: n,
		FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
	if o.PeakInFlight != p {
		t.Errorf("1F1B peak in flight = %d, want p = %d", o.PeakInFlight, p)
	}
}

// TestInterleavingShrinksBubble: the whole point of the interleaved
// schedule (Fig. 2) — the bubble shrinks roughly by the interleave factor.
func TestInterleavingShrinksBubble(t *testing.T) {
	p, n := 4, 16
	// A stage's total work is fixed: v chunks of (fwd,bwd)=(2,4)/v each.
	v1 := sim(t, Params{Stages: p, Chunks: 1, Microbatches: n,
		FwdChunk: 2, BwdChunk: 4, Schedule: OneFOneB})
	v2 := sim(t, Params{Stages: p, Chunks: 2, Microbatches: n,
		FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
	if !(v2.Bubble < v1.Bubble) {
		t.Errorf("interleaving must shrink the bubble: v=2 %v vs v=1 %v", v2.Bubble, v1.Bubble)
	}
	ratio := float64(v1.Bubble) / float64(v2.Bubble)
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("bubble reduction ratio %.2f, expected ≈2 (the interleave factor)", ratio)
	}
	// ... at the cost of more in-flight activations per stage (in chunk
	// units normalized to whole microbatches).
	if float64(v2.PeakInFlight)/2 < float64(v1.PeakInFlight) {
		t.Errorf("interleaving should not reduce activation residency: %d/2 vs %d",
			v2.PeakInFlight, v1.PeakInFlight)
	}
}

// TestInterleavedInFlightMatchesAnalyticalFactor checks the closed form the
// memory model uses: interleaved 1F1B holds ≈ p·(1 + (p−1)/(p·v))
// microbatches on stage 0.
func TestInterleavedInFlightMatchesAnalyticalFactor(t *testing.T) {
	for _, tc := range []struct{ p, v, n int }{
		{4, 2, 16}, {8, 2, 32}, {4, 4, 32},
	} {
		r := sim(t, Params{Stages: tc.p, Chunks: tc.v, Microbatches: tc.n,
			FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
		analytical := float64(tc.p) * (1 + float64(tc.p-1)/float64(tc.p*tc.v))
		simulated := float64(r.PeakInFlight) / float64(tc.v)
		if rel := math.Abs(simulated-analytical) / analytical; rel > 0.35 {
			t.Errorf("p=%d v=%d: simulated in-flight %.2f vs analytical %.2f (rel %.2f)",
				tc.p, tc.v, simulated, analytical, rel)
		}
	}
}

// TestBubbleShrinksWithMicrobatches: relative bubble ∝ (p−1)/n.
func TestBubbleShrinksWithMicrobatches(t *testing.T) {
	p := Params{Stages: 8, Chunks: 1, FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB}
	p.Microbatches = 8
	small := sim(t, p)
	p.Microbatches = 64
	large := sim(t, p)
	relSmall := float64(small.Bubble) / float64(small.Makespan)
	relLarge := float64(large.Bubble) / float64(large.Makespan)
	if !(relLarge < relSmall/4) {
		t.Errorf("relative bubble should shrink with n: %.3f vs %.3f", relSmall, relLarge)
	}
}

// TestHopsExtendMakespan: boundary transfers lengthen the critical path.
func TestHopsExtendMakespan(t *testing.T) {
	base := sim(t, Params{Stages: 4, Chunks: 1, Microbatches: 8,
		FwdChunk: 1, BwdChunk: 2, Schedule: OneFOneB})
	hop := sim(t, Params{Stages: 4, Chunks: 1, Microbatches: 8,
		FwdChunk: 1, BwdChunk: 2, Hop: 0.5, Schedule: OneFOneB})
	if !(hop.Makespan > base.Makespan) {
		t.Errorf("hops must extend the makespan: %v vs %v", hop.Makespan, base.Makespan)
	}
}

// TestSimulationNeverBeatsWorkBound: makespan ≥ per-stage compute, and the
// bubble is never negative (property over random shapes).
func TestSimulationNeverBeatsWorkBound(t *testing.T) {
	f := func(rawP, rawV, rawN uint8, rawF, rawB uint16) bool {
		p := int(rawP%6) + 1
		v := int(rawV%3) + 1
		n := int(rawN%16) + 1
		fwd := units.Seconds(float64(rawF%100)+1) / 100
		bwd := units.Seconds(float64(rawB%100)+1) / 100
		r, err := Simulate(Params{Stages: p, Chunks: v, Microbatches: n,
			FwdChunk: fwd, BwdChunk: bwd, Schedule: OneFOneB})
		if err != nil {
			return false
		}
		return r.Bubble >= -1e-9 && r.Makespan >= r.ComputePerStage-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Stages: 0, Chunks: 1, Microbatches: 1},
		{Stages: 1, Chunks: 0, Microbatches: 1},
		{Stages: 1, Chunks: 1, Microbatches: 0},
		{Stages: 1, Chunks: 1, Microbatches: 1, FwdChunk: -1},
		{Stages: 2, Chunks: 2, Microbatches: 4, Schedule: GPipe}, // GPipe can't interleave
		// Indices past 32 bits are refused before anything is allocated.
		{Stages: 1 << 16, Chunks: 1 << 16, Microbatches: 1, Schedule: OneFOneB},
		{Stages: 1, Chunks: 1, Microbatches: 1 << 31},
	}
	for i, p := range bad {
		if _, err := Simulate(p); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestScheduleString(t *testing.T) {
	if GPipe.String() != "gpipe" || OneFOneB.String() != "1f1b" {
		t.Error("Schedule.String mismatch")
	}
}

// TestPeakInFlightMatchesDirectCount checks the sorted event sweep against
// a direct count: at each event time T, a stage-0 chunk visit is live when
// its forward has finished by T and its backward has not started before T.
// Whole-number op times make many events coincide, so the tie rule matters.
func TestPeakInFlightMatchesDirectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := Params{
			Stages:       1 + rng.Intn(8),
			Chunks:       1,
			Microbatches: 1 + rng.Intn(24),
			FwdChunk:     units.Seconds(1 + rng.Intn(3)),
			BwdChunk:     units.Seconds(1 + rng.Intn(4)),
			Hop:          units.Seconds(rng.Intn(2)),
			Schedule:     Schedule(rng.Intn(2)),
		}
		if p.Schedule == OneFOneB {
			p.Chunks = 1 + rng.Intn(4)
		}
		pl, err := place(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		want := 0
		for k := 0; k < len(pl.fwd); k += p.Stages {
			for m := range pl.fwd[k] {
				for _, at := range []units.Seconds{pl.fwd[k][m].finish, pl.bwd[k][m].start} {
					live := 0
					for c := 0; c < len(pl.fwd); c += p.Stages {
						for j := range pl.fwd[c] {
							if pl.fwd[c][j].finish <= at && pl.bwd[c][j].start >= at {
								live++
							}
						}
					}
					want = max(want, live)
				}
			}
		}
		if got := pl.peakInFlight(p.Stages); got != want {
			t.Fatalf("%+v: peak in flight %d, direct count %d", p, got, want)
		}
	}
}

// FuzzSimulate places bounded schedules of every kind. Op times are
// multiples of 1/8 no larger than 32, so every sum the placement forms is
// exact and the work bound holds without tolerance. A valid shape must
// never deadlock; its trace must list every op exactly once, with no
// overlap on a stage, and report Simulate's result.
func FuzzSimulate(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(8), uint8(8), uint8(16), uint8(1), true)
	f.Add(uint8(3), uint8(1), uint8(7), uint8(8), uint8(16), uint8(0), false)
	f.Add(uint8(5), uint8(3), uint8(12), uint8(3), uint8(5), uint8(2), true)
	f.Fuzz(func(t *testing.T, stages, chunks, mbs, fwd, bwd, hop uint8, oneFOneB bool) {
		p := Params{
			Stages:       1 + int(stages%16),
			Chunks:       1 + int(chunks%4),
			Microbatches: 1 + int(mbs%64),
			FwdChunk:     units.Seconds(fwd) / 8,
			BwdChunk:     units.Seconds(bwd) / 8,
			Hop:          units.Seconds(hop) / 8,
			Schedule:     OneFOneB,
		}
		if !oneFOneB {
			p.Chunks, p.Schedule = 1, GPipe
		}
		res, err := Simulate(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if res.Makespan < res.ComputePerStage {
			t.Fatalf("%+v: makespan %v below the per-stage compute %v", p, res.Makespan, res.ComputePerStage)
		}
		ops, traced, err := Trace(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if traced != res {
			t.Fatalf("%+v: Trace reports %+v, Simulate %+v", p, traced, res)
		}
		if want := 2 * p.Stages * p.Chunks * p.Microbatches; len(ops) != want {
			t.Fatalf("%+v: trace has %d ops, want %d", p, len(ops), want)
		}
		type visit struct {
			chunk, mb int
			fwd       bool
		}
		seen := make(map[visit]bool, len(ops))
		for i, o := range ops {
			v := visit{o.Stage + p.Stages*o.Chunk, o.Microbatch, o.Forward}
			if seen[v] {
				t.Fatalf("%+v: op %+v listed twice", p, o)
			}
			seen[v] = true
			if i > 0 && ops[i-1].Stage == o.Stage && o.Start < ops[i-1].Finish {
				t.Fatalf("%+v: stage %d ops overlap: %+v then %+v", p, o.Stage, ops[i-1], o)
			}
		}
	})
}
