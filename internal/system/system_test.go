package system

import (
	"math"
	"testing"
	"testing/quick"

	"calculon/internal/units"
)

func TestEfficiencyCurveInterpolation(t *testing.T) {
	c := EfficiencyCurve{{Size: 1e3, Eff: 0.2}, {Size: 1e5, Eff: 0.8}}
	if got := c.At(1e2); got != 0.2 {
		t.Errorf("below range: got %g, want clamp to 0.2", got)
	}
	if got := c.At(1e6); got != 0.8 {
		t.Errorf("above range: got %g, want clamp to 0.8", got)
	}
	// Geometric midpoint 1e4 should interpolate to the arithmetic midpoint
	// in eff because the curve is linear in log10(size).
	if got := c.At(1e4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("log midpoint: got %g, want 0.5", got)
	}
}

func TestEfficiencyCurveEmptyIsUnity(t *testing.T) {
	var c EfficiencyCurve
	for _, s := range []float64{1, 1e6, 1e18} {
		if got := c.At(s); got != 1 {
			t.Errorf("empty curve At(%g) = %g, want 1", s, got)
		}
	}
}

func TestEfficiencyCurveMonotoneProperty(t *testing.T) {
	c := a100MatrixEff
	f := func(r1, r2 uint32) bool {
		a := 1 + float64(r1%1000000)*1e7
		b := 1 + float64(r2%1000000)*1e7
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEfficiencyCurveValidate(t *testing.T) {
	bad := []EfficiencyCurve{
		{{Size: 0, Eff: 0.5}},
		{{Size: 1, Eff: 0}},
		{{Size: 1, Eff: 1.5}},
		{{Size: 10, Eff: 0.5}, {Size: 5, Eff: 0.6}},
		{{Size: 5, Eff: 0.5}, {Size: 5, Eff: 0.6}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("curve %d should fail validation", i)
		}
	}
	if err := a100MatrixEff.Validate(); err != nil {
		t.Errorf("a100 curve invalid: %v", err)
	}
}

func TestComputeRates(t *testing.T) {
	c := Compute{MatrixPeak: 100, VectorPeak: 10,
		MatrixEff: EfficiencyCurve{{Size: 1, Eff: 0.5}}}
	if got := c.MatrixRate(1e9); got != 50 {
		t.Errorf("MatrixRate = %v, want 50", got)
	}
	if got := c.VectorRate(1e9); got != 10 {
		t.Errorf("VectorRate = %v, want 10 (empty curve)", got)
	}
}

func TestMemoryAccessTime(t *testing.T) {
	m := Memory{Capacity: 80 * units.GiB, Bandwidth: 2e12}
	got := m.AccessTime(2e12)
	if math.Abs(float64(got)-1) > 1e-12 {
		t.Errorf("AccessTime = %v, want 1s", got)
	}
	if m.AccessTime(0) != 0 {
		t.Error("zero bytes must take zero time")
	}
	if m.AccessTime(-5) != 0 {
		t.Error("negative bytes must take zero time")
	}
}

func TestMemoryEfficiencyDerates(t *testing.T) {
	m := Memory{Capacity: 1, Bandwidth: 1000,
		Efficiency: EfficiencyCurve{{Size: 1, Eff: 0.5}}}
	if got := m.EffectiveBandwidth(100); got != 500 {
		t.Errorf("EffectiveBandwidth = %v, want 500", got)
	}
}

func TestNetworkCovers(t *testing.T) {
	nv := Network{Name: "nvlink", Size: 8}
	ib := Network{Name: "ib", Size: 0}
	if !nv.Covers(8) || nv.Covers(9) {
		t.Error("nvlink must cover exactly up to its size")
	}
	if !ib.Covers(1 << 20) {
		t.Error("size-0 network must cover everything")
	}
}

func TestNetworkFor(t *testing.T) {
	s := A100(4096)
	if got := s.NetworkFor(8).Name; got != "nvlink" {
		t.Errorf("group of 8 → %s, want nvlink", got)
	}
	if got := s.NetworkFor(16).Name; got != "ib-hdr" {
		t.Errorf("group of 16 → %s, want ib-hdr", got)
	}
	if got := s.ScaleOut().Name; got != "ib-hdr" {
		t.Errorf("ScaleOut → %s, want ib-hdr", got)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, s := range []System{
		A100(4096),
		H100(4096, 80*units.GiB, 0),
		H100(4096, 80*units.GiB, 512*units.GiB),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadSystems(t *testing.T) {
	base := A100(64)
	mutations := []func(*System){
		func(s *System) { s.Procs = 0 },
		func(s *System) { s.Compute.MatrixPeak = 0 },
		func(s *System) { s.Compute.VectorPeak = -1 },
		func(s *System) { s.Mem1.Capacity = 0 },
		func(s *System) { s.Mem1.Bandwidth = 0 },
		func(s *System) { s.Mem2 = Memory{Capacity: 10} }, // no bandwidth
		func(s *System) { s.Networks = nil },
		func(s *System) { s.Networks = []Network{{Name: "x", Size: 8, Bandwidth: 1e9}} }, // doesn't span
		func(s *System) { s.Networks[0].ProcUse = 1.5 },
		func(s *System) { s.Networks[0].ProcUse = 1 }, // an infinite overlap tax
		func(s *System) { s.Networks[0].Latency = -1 },
		func(s *System) {
			// system-wide network listed before a sized one
			s.Networks = []Network{
				{Name: "wide", Size: 0, Bandwidth: 1e9},
				{Name: "small", Size: 8, Bandwidth: 1e9},
			}
		},
	}
	for i, mut := range mutations {
		s := base
		s.Networks = append([]Network(nil), base.Networks...)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestWithHelpers(t *testing.T) {
	s := A100(4096)
	if got := s.WithProcs(8).Procs; got != 8 {
		t.Errorf("WithProcs = %d", got)
	}
	if got := s.WithMem1Capacity(160 * units.GiB).Mem1.Capacity; got != 160*units.GiB {
		t.Errorf("WithMem1Capacity = %v", got)
	}
	s2 := s.WithMem2(DDR5(512 * units.GiB))
	if !s2.Mem2.Present() || s2.Mem2.Bandwidth != 100e9 {
		t.Errorf("WithMem2 = %+v", s2.Mem2)
	}
	s3 := s.WithFastDomain(32)
	if s3.Networks[0].Size != 32 {
		t.Errorf("WithFastDomain = %d", s3.Networks[0].Size)
	}
	if s.Networks[0].Size != 8 {
		t.Error("WithFastDomain must not mutate the receiver")
	}
}

func TestInfiniteMem2(t *testing.T) {
	m := InfiniteMem2()
	if !m.Present() || !m.Capacity.IsUnbounded() || !m.Bandwidth.IsUnbounded() {
		t.Fatalf("InfiniteMem2 = %+v", m)
	}
	if m.AccessTime(1e15) != 0 {
		t.Error("infinite bandwidth must give zero access time")
	}
}

func TestPresetLookup(t *testing.T) {
	for _, name := range PresetNames() {
		s, err := Preset(name, 128)
		if err != nil {
			t.Errorf("Preset(%s): %v", name, err)
			continue
		}
		if s.Procs != 128 {
			t.Errorf("Preset(%s) procs = %d", name, s.Procs)
		}
	}
	if _, err := Preset("nonsense", 1); err == nil {
		t.Error("unknown preset must error")
	}
}

func TestSuperPodNetworkSelection(t *testing.T) {
	s := SuperPod(1024)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.NetworkFor(8).Name; got != "nvlink" {
		t.Errorf("group 8 → %s", got)
	}
	if got := s.NetworkFor(64).Name; got != "ib-leaf" {
		t.Errorf("group 64 → %s", got)
	}
	if got := s.NetworkFor(512).Name; got != "ib-spine" {
		t.Errorf("group 512 → %s", got)
	}
	// Tier bandwidths must descend.
	for i := 1; i < len(s.Networks); i++ {
		if s.Networks[i].Bandwidth >= s.Networks[i-1].Bandwidth {
			t.Error("network tiers should get slower outward")
		}
	}
}
