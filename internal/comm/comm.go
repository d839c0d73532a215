// Package comm prices the communication primitives the execution strategies
// use — ring all-reduce, reduce-scatter, all-gather, broadcast, and
// point-to-point transfers — on a network description (§2.2 of the paper).
// Costs combine per-hop latency with size-derated bandwidth; networks with
// in-network collectives (e.g. switch reduction trees) pay a single data
// traversal for all-reduce instead of the ring's two.
package comm

import (
	"calculon/internal/system"
	"calculon/internal/units"
)

// Op is a communication primitive.
type Op int

const (
	// AllReduce combines a tensor across the group, leaving the full result
	// everywhere.
	AllReduce Op = iota
	// ReduceScatter combines a tensor, leaving each member with 1/g of it.
	ReduceScatter
	// AllGather concatenates per-member shards into the full tensor
	// everywhere.
	AllGather
	// Broadcast copies a tensor from one member to all.
	Broadcast
	// P2P sends a tensor to one neighbour (pipeline traffic).
	P2P
)

func (o Op) String() string {
	switch o {
	case AllReduce:
		return "all-reduce"
	case ReduceScatter:
		return "reduce-scatter"
	case AllGather:
		return "all-gather"
	case Broadcast:
		return "broadcast"
	default:
		return "p2p"
	}
}

// Time returns the time for the collective op of the given full-tensor size
// over a group of g processors on network n. A group of 1 (or empty tensors)
// costs nothing. The network is taken by pointer: the search hot path prices
// several collectives per evaluated strategy, and the struct (with its
// embedded efficiency curve) is large enough that per-call copies show up.
func Time(n *system.Network, op Op, g int, tensor units.Bytes) units.Seconds {
	if tensor <= 0 {
		return 0
	}
	if op == P2P {
		return tensor.Div(n.EffectiveBandwidth(tensor)) + n.Latency
	}
	if g <= 1 {
		return 0
	}
	// Ring algorithms move (g−1) chunks of tensor/g per phase; the chunk
	// size keys the bandwidth-efficiency lookup. For the latency term the
	// library is assumed to pick the better of the ring ((g−1) serialized
	// hops) and a recursive-halving/doubling schedule (⌈log₂ g⌉ rounds with
	// the same total bytes), as production collective libraries do.
	chunk := tensor.DivN(float64(g))
	bw := n.EffectiveBandwidth(chunk)
	steps := n.Latency.Times(float64(latencySteps(g)))
	phase := tensor.Times(float64(g - 1)).DivN(float64(g)).Div(bw)
	switch op {
	case ReduceScatter, AllGather:
		return phase + steps
	case Broadcast:
		// Pipelined tree broadcast: one data traversal plus log-ish latency,
		// bounded below by a ring's single phase.
		return tensor.Div(n.EffectiveBandwidth(tensor)) + steps
	default: // AllReduce
		if n.InNetworkCollectives {
			// Switch reduction: data goes up and results come down once.
			return tensor.Div(n.EffectiveBandwidth(tensor)) + 2*n.Latency
		}
		return 2 * (phase + steps)
	}
}

// latencySteps is the serialized-hop count of the latency-optimal
// schedule: min(g−1, ⌈log₂ g⌉).
func latencySteps(g int) int {
	logSteps := 0
	for 1<<logSteps < g {
		logSteps++
	}
	if g-1 < logSteps {
		return g - 1
	}
	return logSteps
}
