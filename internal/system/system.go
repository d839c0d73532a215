// Package system describes the hardware side of a Calculon analysis (§2.2 of
// the paper): a distributed machine of identical processors, each with a
// matrix engine and a vector engine whose achievable throughput depends on
// operation size, a two-level memory hierarchy (a fast first level for direct
// computation and an optional high-capacity second level for offloading), and
// one or more networks with size, bandwidth, latency, efficiency, optional
// in-network collectives, and a processor-utilization tax charged while the
// network runs at full bandwidth.
package system

import (
	"fmt"
	"math"

	"calculon/internal/units"
)

// EffPoint anchors an efficiency curve: operations of this Size achieve the
// fraction Eff of peak throughput.
type EffPoint struct {
	Size float64 `json:"size"`
	Eff  float64 `json:"eff"`
}

// EfficiencyCurve maps an operation size (FLOPs for compute, bytes for
// memory) to an achievable fraction of peak, interpolating piecewise
// linearly in log10(size) and clamping outside the anchored range. An empty
// curve means "always 100% of peak". This models, e.g., small GEMMs running
// at a lower fraction of peak than large ones (§2.2, [33]).
type EfficiencyCurve []EffPoint

// At returns the efficiency for an operation of the given size.
func (c EfficiencyCurve) At(size float64) float64 {
	if len(c) == 0 {
		return 1
	}
	if size <= c[0].Size {
		return c[0].Eff
	}
	last := c[len(c)-1]
	if size >= last.Size {
		return last.Eff
	}
	for i := 1; i < len(c); i++ {
		if size <= c[i].Size {
			lo, hi := c[i-1], c[i]
			f := (math.Log10(size) - math.Log10(lo.Size)) / (math.Log10(hi.Size) - math.Log10(lo.Size))
			return lo.Eff + f*(hi.Eff-lo.Eff)
		}
	}
	return last.Eff
}

// Validate checks that the curve is sorted by size with efficiencies in (0,1].
func (c EfficiencyCurve) Validate() error {
	for i, p := range c {
		if p.Size <= 0 {
			return fmt.Errorf("efficiency point %d: size must be positive, got %g", i, p.Size)
		}
		if p.Eff <= 0 || p.Eff > 1 {
			return fmt.Errorf("efficiency point %d: eff must be in (0,1], got %g", i, p.Eff)
		}
		if i > 0 && c[i-1].Size >= p.Size {
			return fmt.Errorf("efficiency points must be strictly increasing in size at %d", i)
		}
	}
	return nil
}

// Compute is the per-processor execution model: computation is assigned to
// either "matrix" execution (GEMMs) or "vector" execution (element-wise
// layers, reductions, optimizer math).
type Compute struct {
	MatrixPeak units.FLOPsPerSec `json:"matrix_peak"`
	VectorPeak units.FLOPsPerSec `json:"vector_peak"`
	// MatrixEff / VectorEff are keyed by the FLOP count of the operation.
	MatrixEff EfficiencyCurve `json:"matrix_eff,omitempty"`
	VectorEff EfficiencyCurve `json:"vector_eff,omitempty"`
}

// MatrixRate returns the achievable matrix throughput for an op of the given
// FLOP count. The pointer receiver keeps the per-op hot path from copying
// the embedded efficiency curves on every call.
func (c *Compute) MatrixRate(flops units.FLOPs) units.FLOPsPerSec {
	return units.FLOPsPerSec(float64(c.MatrixPeak) * c.MatrixEff.At(float64(flops)))
}

// VectorRate returns the achievable vector throughput for an op of the given
// FLOP count.
func (c *Compute) VectorRate(flops units.FLOPs) units.FLOPsPerSec {
	return units.FLOPsPerSec(float64(c.VectorPeak) * c.VectorEff.At(float64(flops)))
}

// Memory is one tier of the processor's memory system.
type Memory struct {
	Capacity  units.Bytes       `json:"capacity"`
	Bandwidth units.BytesPerSec `json:"bandwidth"`
	// Efficiency is keyed by the byte size of the access stream.
	Efficiency EfficiencyCurve `json:"efficiency,omitempty"`
}

// Present reports whether the tier exists (the second level is optional).
func (m Memory) Present() bool { return m.Capacity > 0 }

// AccessTime returns the time to stream the given bytes through this tier.
// Pointer receiver: called per priced op, so the receiver copy matters.
func (m *Memory) AccessTime(b units.Bytes) units.Seconds {
	if b <= 0 {
		return 0
	}
	return b.Div(m.EffectiveBandwidth(b))
}

// EffectiveBandwidth is the size-derated bandwidth for an access of b bytes.
func (m *Memory) EffectiveBandwidth(b units.Bytes) units.BytesPerSec {
	if m.Bandwidth.IsUnbounded() {
		return m.Bandwidth
	}
	return units.BytesPerSec(float64(m.Bandwidth) * m.Efficiency.At(float64(b)))
}

// Network models one interconnect reachable from every processor.
type Network struct {
	Name string `json:"name"`
	// Size is the domain size: the number of processors reachable at full
	// bandwidth (e.g. 8 for an NVLink cluster). Zero means system-wide.
	Size int `json:"size"`
	// Bandwidth is the per-processor injection bandwidth, per direction.
	Bandwidth units.BytesPerSec `json:"bandwidth"`
	Latency   units.Seconds     `json:"latency"`
	// Efficiency derates the achievable bandwidth (protocol overheads etc.),
	// keyed by message size in bytes.
	Efficiency EfficiencyCurve `json:"efficiency,omitempty"`
	// InNetworkCollectives indicates switch-offloaded reductions (e.g.
	// SHARP): all-reduce costs one traversal of the data instead of the
	// ring's 2(g−1)/g traversals.
	InNetworkCollectives bool `json:"in_network_collectives,omitempty"`
	// ProcUse is the fraction of the processor's compute consumed when this
	// network runs at full bandwidth (§2.2: 15% of cores for NCCL on NVLink,
	// 2% for the scale-out NIC). It prices communication/compute overlap,
	// and must be below 1.
	ProcUse float64 `json:"proc_use"`
}

// Covers reports whether a communication group of the given size fits inside
// one domain of this network.
func (n Network) Covers(group int) bool { return n.Size == 0 || group <= n.Size }

// EffectiveBandwidth is the size-derated per-processor bandwidth for a
// message of b bytes. Pointer receiver: the collective-time model calls it
// several times per evaluated strategy.
func (n *Network) EffectiveBandwidth(b units.Bytes) units.BytesPerSec {
	return units.BytesPerSec(float64(n.Bandwidth) * n.Efficiency.At(float64(b)))
}

// System is the full hardware specification.
type System struct {
	Name string `json:"name"`
	// Procs is the number of processors in the machine.
	Procs   int     `json:"procs"`
	Compute Compute `json:"compute"`
	// Mem1 is the first-level memory used for direct computation (HBM).
	Mem1 Memory `json:"mem1"`
	// Mem2 is the optional second-level offload memory (CPU DDR / CXL).
	Mem2 Memory `json:"mem2,omitempty"`
	// Networks are ordered fastest/smallest first (NVLink before InfiniBand).
	Networks []Network `json:"networks"`
}

// Validate checks the structural constraints on the system description.
func (s System) Validate() error {
	if s.Procs <= 0 {
		return fmt.Errorf("system %s: procs must be positive, got %d", s.Name, s.Procs)
	}
	if s.Compute.MatrixPeak <= 0 || s.Compute.VectorPeak <= 0 {
		return fmt.Errorf("system %s: compute peaks must be positive", s.Name)
	}
	if err := s.Compute.MatrixEff.Validate(); err != nil {
		return fmt.Errorf("system %s: matrix eff: %w", s.Name, err)
	}
	if err := s.Compute.VectorEff.Validate(); err != nil {
		return fmt.Errorf("system %s: vector eff: %w", s.Name, err)
	}
	if !s.Mem1.Present() || s.Mem1.Bandwidth <= 0 {
		return fmt.Errorf("system %s: mem1 must have capacity and bandwidth", s.Name)
	}
	if s.Mem2.Present() && s.Mem2.Bandwidth <= 0 {
		return fmt.Errorf("system %s: mem2 present but has no bandwidth", s.Name)
	}
	if len(s.Networks) == 0 {
		return fmt.Errorf("system %s: at least one network required", s.Name)
	}
	for i, n := range s.Networks {
		if n.Bandwidth <= 0 {
			return fmt.Errorf("system %s: network %d (%s) bandwidth must be positive", s.Name, i, n.Name)
		}
		if n.Latency < 0 {
			return fmt.Errorf("system %s: network %d (%s) latency must be non-negative", s.Name, i, n.Name)
		}
		// Hiding communication costs hidden·ProcUse/(1−ProcUse) of compute,
		// which a network that takes every core would make infinite.
		if !(n.ProcUse >= 0 && n.ProcUse < 1) {
			return fmt.Errorf("system %s: network %d (%s) proc_use must be in [0,1)", s.Name, i, n.Name)
		}
		if err := n.Efficiency.Validate(); err != nil {
			return fmt.Errorf("system %s: network %d (%s): %w", s.Name, i, n.Name, err)
		}
		if i > 0 && s.Networks[i-1].Size == 0 {
			return fmt.Errorf("system %s: system-wide network %q must be last", s.Name, s.Networks[i-1].Name)
		}
	}
	last := s.Networks[len(s.Networks)-1]
	if !last.Covers(s.Procs) {
		return fmt.Errorf("system %s: outermost network %q (size %d) does not span %d procs",
			s.Name, last.Name, last.Size, s.Procs)
	}
	return nil
}

// NetworkPtrFor selects the network that carries a communication group of
// the given size: the fastest (earliest-listed) network whose domain covers
// the group. This is how tensor parallelism lands on NVLink when t fits the
// domain and spills to the scale-out fabric otherwise. It returns a pointer
// into s.Networks, valid as long as the System itself: the evaluation hot
// path selects a network per communication group per strategy, so the copy
// elision is worth the aliasing caveat.
func (s *System) NetworkPtrFor(group int) *Network {
	for i := range s.Networks {
		if s.Networks[i].Covers(group) {
			return &s.Networks[i]
		}
	}
	return &s.Networks[len(s.Networks)-1]
}

// ScaleOut returns the outermost (system-spanning) network, used by pipeline
// and data parallelism whose groups stride across fast domains.
func (s System) ScaleOut() Network { return s.Networks[len(s.Networks)-1] }

// WithProcs returns a copy resized to n processors (system-size sweeps).
func (s System) WithProcs(n int) System {
	s.Procs = n
	return s
}

// WithMem1Capacity returns a copy with the first-level capacity replaced
// (e.g. the 160 GiB variant of Fig. 5(d)).
func (s System) WithMem1Capacity(c units.Bytes) System {
	s.Mem1.Capacity = c
	return s
}

// WithMem2 returns a copy with the offload tier replaced. Passing a zero
// Memory removes the tier.
func (s System) WithMem2(m Memory) System {
	s.Mem2 = m
	return s
}

// WithFastDomain returns a copy whose first (fast) network has the given
// domain size, as in §4.1 where "the NVLink size is set to the number of
// GPUs in the TP domain" to expose the implicit costs of TP.
func (s System) WithFastDomain(size int) System {
	nets := make([]Network, len(s.Networks))
	copy(nets, s.Networks)
	if len(nets) > 0 && nets[0].Size != 0 {
		nets[0].Size = size
	}
	s.Networks = nets
	return s
}

func (s System) String() string {
	nets := make([]string, len(s.Networks))
	for i, n := range s.Networks {
		nets[i] = fmt.Sprintf("%s(size=%d,%v)", n.Name, n.Size, n.Bandwidth)
	}
	m2 := "none"
	if s.Mem2.Present() {
		m2 = fmt.Sprintf("%v@%v", s.Mem2.Capacity, s.Mem2.Bandwidth)
	}
	return fmt.Sprintf("%s{procs=%d matrix=%v mem1=%v@%v mem2=%s nets=%v}",
		s.Name, s.Procs, s.Compute.MatrixPeak, s.Mem1.Capacity, s.Mem1.Bandwidth, m2, nets)
}
