// Package pipesim is a discrete simulator of the pipeline schedules the
// analytical model prices in closed form (Fig. 2 of the paper): GPipe-style
// all-forward-all-backward, 1F1B, and Megatron's interleaved 1F1B. It
// builds the exact operation DAG — every (stage, chunk, microbatch,
// direction) visit with its device-order and pipeline-dependency edges —
// and computes start/finish times by longest path.
//
// Its role in this repository is validation: the closed-form bubble and
// in-flight-activation expressions used by internal/perf are cross-checked
// against this simulator in tests, the same way the paper validates its
// analytical model against measurements.
package pipesim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"calculon/internal/units"
)

// Schedule selects the pipeline schedule to simulate.
type Schedule int

const (
	// GPipe runs every forward before any backward.
	GPipe Schedule = iota
	// OneFOneB is the memory-saving one-forward-one-backward schedule;
	// with Chunks > 1 it becomes Megatron's interleaved schedule.
	OneFOneB
)

func (s Schedule) String() string {
	if s == GPipe {
		return "gpipe"
	}
	return "1f1b"
}

// Params describes the pipeline to simulate.
type Params struct {
	// Stages is the pipeline depth p.
	Stages int
	// Chunks is the interleaving factor v: each stage owns v chunks of
	// consecutive blocks (Fig. 2's "chunk of consecutive blocks").
	Chunks int
	// Microbatches is n, the microbatches per pipeline pass.
	Microbatches int
	// FwdChunk / BwdChunk are the compute times of one chunk visit.
	FwdChunk units.Seconds
	BwdChunk units.Seconds
	// Hop is the point-to-point boundary transfer time between stages.
	Hop      units.Seconds
	Schedule Schedule
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.Stages < 1:
		return fmt.Errorf("pipesim: stages must be ≥1, got %d", p.Stages)
	case p.Chunks < 1:
		return fmt.Errorf("pipesim: chunks must be ≥1, got %d", p.Chunks)
	case p.Microbatches < 1:
		return fmt.Errorf("pipesim: microbatches must be ≥1, got %d", p.Microbatches)
	case p.FwdChunk < 0 || p.BwdChunk < 0 || p.Hop < 0:
		return fmt.Errorf("pipesim: times must be non-negative")
	case p.Schedule == GPipe && p.Chunks != 1:
		return fmt.Errorf("pipesim: GPipe does not interleave chunks")
	case p.Chunks > math.MaxInt32/p.Stages || p.Microbatches > math.MaxInt32:
		return fmt.Errorf("pipesim: stages × chunks and microbatches must each be at most %d", math.MaxInt32)
	}
	return nil
}

// Result is the simulated outcome.
type Result struct {
	// Makespan is the end-to-end time of the pipeline pass.
	Makespan units.Seconds
	// ComputePerStage is the busy compute time of each stage (identical
	// across stages for a uniform pipeline).
	ComputePerStage units.Seconds
	// Bubble is the idle time of the bottleneck stage:
	// Makespan − ComputePerStage.
	Bubble units.Seconds
	// PeakInFlight is the maximum number of chunk-visits whose forward has
	// completed but whose backward has not yet started on stage 0 — the
	// activation residency the memory model sizes, in microbatch
	// equivalents (divide by Chunks for whole microbatches).
	PeakInFlight int
}

// op is one chunk visit's timing.
type op struct {
	start, finish units.Seconds
}

// placement is one simulated schedule: the timing of every op and each
// stage's op order. Simulate and Trace both read it off place.
type placement struct {
	fwd, bwd [][]op // [global chunk][microbatch]
	seqs     [][]ref
}

// place validates the parameters, builds every stage's op order under the
// schedule, and places each op at the later of its stage's free time and
// its pipeline dependency's finish.
func place(p Params) (placement, error) {
	if err := p.Validate(); err != nil {
		return placement{}, err
	}
	P, V, N := p.Stages, p.Chunks, p.Microbatches
	K := P * V // global chunk count; global chunk k lives on stage k%P, chunk k/P

	pl := placement{fwd: make([][]op, K), bwd: make([][]op, K), seqs: make([][]ref, P)}
	unset := op{start: -1}
	for k := 0; k < K; k++ {
		pl.fwd[k] = make([]op, N)
		pl.bwd[k] = make([]op, N)
		for m := 0; m < N; m++ {
			pl.fwd[k][m], pl.bwd[k][m] = unset, unset
		}
	}
	for s := 0; s < P; s++ {
		pl.seqs[s] = deviceSequence(p, s)
	}

	// The op DAG is acyclic (device order plus forward-in-model-order and
	// backward-in-reverse-order dependencies), so repeated relaxation in
	// device order converges; iterate until a full pass changes nothing.
	devFree := make([]units.Seconds, P)
	devPos := make([]int, P)
	remaining := 2 * K * N
	for remaining > 0 {
		progressed := false
		for s := 0; s < P; s++ {
			for devPos[s] < len(pl.seqs[s]) {
				r := pl.seqs[s][devPos[s]]
				ready, ok := p.depReady(r, pl.fwd, pl.bwd)
				if !ok {
					break
				}
				o := &pl.fwd[r.chunk][r.mb]
				dur := p.FwdChunk
				if !r.isFwd {
					o = &pl.bwd[r.chunk][r.mb]
					dur = p.BwdChunk
				}
				start := devFree[s]
				if ready > start {
					start = ready
				}
				o.start = start
				o.finish = start + dur
				devFree[s] = o.finish
				devPos[s]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return placement{}, fmt.Errorf("pipesim: schedule deadlocked (stages=%d chunks=%d n=%d)", P, V, N)
		}
	}
	return pl, nil
}

// Simulate runs the schedule and returns its timing.
func Simulate(p Params) (Result, error) {
	pl, err := place(p)
	if err != nil {
		return Result{}, err
	}
	return pl.result(p), nil
}

// result reads the schedule's outcome off the placement.
func (pl *placement) result(p Params) Result {
	var res Result
	for _, row := range pl.bwd {
		for _, o := range row {
			if o.finish > res.Makespan {
				res.Makespan = o.finish
			}
		}
	}
	res.ComputePerStage = units.Seconds(p.Microbatches*p.Chunks) * (p.FwdChunk + p.BwdChunk)
	res.Bubble = res.Makespan - res.ComputePerStage
	res.PeakInFlight = pl.peakInFlight(p.Stages)
	return res
}

// ref names one op in a device sequence. Its indices are 32-bit, which
// Validate's bounds keep from overflowing, so the 2·chunks·microbatches
// refs of a long schedule take half the memory.
type ref struct {
	chunk int32 // global chunk index
	mb    int32
	isFwd bool
}

// depReady returns when the op's pipeline dependency is satisfied, or false
// if a dependency has not been scheduled yet.
func (p Params) depReady(r ref, fwd, bwd [][]op) (units.Seconds, bool) {
	last := int32(p.Stages*p.Chunks - 1)
	var dep op
	hop := p.Hop
	switch {
	case r.isFwd && r.chunk == 0:
		return 0, true
	case r.isFwd:
		dep = fwd[r.chunk-1][r.mb]
	case r.chunk == last: // the backward turns around on the same stage
		dep, hop = fwd[last][r.mb], 0
	default:
		dep = bwd[r.chunk+1][r.mb]
	}
	if dep.start < 0 {
		return 0, false
	}
	return dep.finish + hop, true
}

// deviceSequence produces stage s's op order under the schedule.
func deviceSequence(p Params, s int) []ref {
	P, V, N := p.Stages, p.Chunks, p.Microbatches
	total := N * V

	// Forward order: Megatron's round-robin over chunks in groups of P
	// microbatches; backward symmetric with chunks reversed. Building the
	// lists explicitly keeps the cross-device order consistent when N is
	// not a multiple of P.
	fwdOrder := make([]ref, 0, total)
	bwdOrder := make([]ref, 0, total)
	for group := 0; group*P < N; group++ {
		for c := 0; c < V; c++ {
			for j := 0; j < P; j++ {
				m := group*P + j
				if m >= N {
					continue
				}
				fwdOrder = append(fwdOrder, ref{chunk: int32(c*P + s), mb: int32(m), isFwd: true})
				bwdOrder = append(bwdOrder, ref{chunk: int32((V-1-c)*P + s), mb: int32(m), isFwd: false})
			}
		}
	}
	if p.Schedule == GPipe {
		return append(fwdOrder, bwdOrder...)
	}

	// 1F1B / interleaved 1F1B: Megatron's warmup count in chunk visits,
	// then strict alternation, then the cooldown drain. The interleaved
	// schedule is only defined for n divisible by p (Megatron asserts the
	// same); other shapes run all forwards first, which is always valid.
	warmup := P - s - 1
	if V > 1 {
		warmup = 2*(P-s-1) + (V-1)*P
		if N%P != 0 {
			warmup = total
		}
	}
	if warmup > total {
		warmup = total
	}
	seq := make([]ref, 0, 2*total)
	seq = append(seq, fwdOrder[:warmup]...)
	for i := warmup; i < total; i++ {
		seq = append(seq, fwdOrder[i], bwdOrder[i-warmup])
	}
	seq = append(seq, bwdOrder[total-warmup:]...)
	return seq
}

// peakInFlight scans stage 0's chunk visits for the maximum number whose
// forward has finished while the backward has not started. At equal times
// the activation is still live while its backward starts, so acquisitions
// count before releases.
func (pl *placement) peakInFlight(P int) int {
	var events []event
	for k := 0; k < len(pl.fwd); k += P { // stage 0's chunks
		for m := range pl.fwd[k] {
			events = append(events, event{pl.fwd[k][m].finish, +1}, event{pl.bwd[k][m].start, -1})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return b.delta - a.delta
	})
	peak, cur := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

type event struct {
	t     units.Seconds
	delta int
}
