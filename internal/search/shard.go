package search

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"calculon/internal/model"
	"calculon/internal/system"
)

// Shard names one contiguous range of a sharded execution search: shard
// Index of Count splits of the deterministic (tp,pp,dp) triple sequence.
// Ranges are derived purely from (Index, Count, triple count) — shard i of
// n covers triples [i·T/n, (i+1)·T/n) — so any two processes given the same
// search agree on the partition without coordination.
type Shard struct {
	// Index is 0-based: 0 ≤ Index < Count.
	Index int `json:"index"`
	// Count is the total number of shards; 1 means the whole space.
	Count int `json:"count"`
}

// Validate reports whether the shard coordinates are well-formed.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("search: shard count %d, need at least 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("search: shard index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

// String renders the 1-based i/n form the CLI accepts.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index+1, s.Count) }

// ParseShard parses the 1-based "i/n" form ("2/3" = second of three).
func ParseShard(v string) (Shard, error) {
	i := strings.IndexByte(v, '/')
	if i < 0 {
		return Shard{}, fmt.Errorf("search: shard %q: want i/n, e.g. 2/3", v)
	}
	idx, err := strconv.Atoi(v[:i])
	if err != nil {
		return Shard{}, fmt.Errorf("search: shard %q: bad index: %v", v, err)
	}
	cnt, err := strconv.Atoi(v[i+1:])
	if err != nil {
		return Shard{}, fmt.Errorf("search: shard %q: bad count: %v", v, err)
	}
	sh := Shard{Index: idx - 1, Count: cnt}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// ShardResult is the mergeable partial outcome of one shard of an
// execution search. It carries everything MergeResults needs to reproduce
// the single-process Result exactly: counters over the shard's leaves
// (including the closed-form subtree-pruned ones), and the shard-local
// best/top-K/Pareto candidates with their global sequence numbers. The
// merge invariants: the global best is the highest-ranked shard best; every
// global top-K member is in its shard's top-K; every global Pareto point is
// shard-locally nondominated — so merging the shard candidate sets loses
// nothing. CacheHits is the one counter that is NOT
// split-invariant (each process warms its own block-profile memo), which is
// why the CLI's canonical JSON omits it.
type ShardResult struct {
	Shard  Shard `json:"shard"`
	TopK   int   `json:"top_k"`
	Pareto bool  `json:"pareto"`

	Counts

	Best  *SeqResult  `json:"best,omitempty"`
	Top   []SeqResult `json:"top,omitempty"`
	Front []SeqResult `json:"front,omitempty"`
}

// shardRange returns the contiguous triple range [lo,hi) shard s covers out
// of total triples. Ranges tile the sequence exactly; with more shards than
// triples some ranges are empty.
func shardRange(s Shard, total int) (lo, hi int) {
	lo = s.Index * total / s.Count
	hi = (s.Index + 1) * total / s.Count
	return lo, hi
}

// ExecutionShard evaluates one shard of the execution search: the
// contiguous triple range derived from sh, scored with globally consistent
// sequence numbers, so that MergeResults over a complete set of shards
// reproduces Execution's answer exactly. Option normalization is shared
// with Execution — the same search splits identically everywhere.
//
// Sharded runs never consult or write the persistent store (the store
// operates on whole searches; merge the shards, then store if desired), and
// CollectRates is rejected (the rates order is not mergeable
// deterministically).
func ExecutionShard(ctx context.Context, m model.LLM, sys system.System, opts Options, sh Shard) (ShardResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := sh.Validate(); err != nil {
		return ShardResult{}, err
	}
	if opts.CollectRates {
		return ShardResult{}, fmt.Errorf("search: CollectRates is not supported on sharded searches")
	}
	opts, err := normalizeOptions(m, sys, opts)
	if err != nil {
		return ShardResult{}, err
	}
	triples := opts.Enum.Triples(m)
	lo, hi := shardRange(sh, len(triples))
	// The shard's sequence numbers start after every leaf of the triples
	// before its range — closed-form, no enumeration.
	seqBase := opts.Enum.LeafCount(m, triples[:lo])
	size := func() int { return opts.Enum.LeafCount(m, triples[lo:hi]) }
	return Run(ctx, opts.Watch, Stored[ShardResult]{}, size, func(prog *Progress) (ShardResult, error) {
		merged, err := executionScored(ctx, m, sys, opts, prog, triples[lo:hi], seqBase)
		if err != nil {
			return ShardResult{}, err
		}
		return merged.shardResult(sh), ctx.Err()
	})
}

// shardResult exports a merged state as the mergeable partial of shard sh.
// Its parts are already in their final order and in the wire's shape: the
// best is the top list's head, and Top is that list cut at the top-K.
func (ws *workerState) shardResult(sh Shard) ShardResult {
	out := ShardResult{
		Shard:  sh,
		TopK:   ws.topK,
		Pareto: ws.pareto,
		Counts: ws.Counts,
		Top:    ws.top[:min(len(ws.top), ws.topK)],
		Front:  ws.front,
	}
	if len(ws.top) > 0 {
		out.Best = &ws.top[0]
	}
	return out
}

// MergeResults combines the partial results of a complete shard set into
// exactly the Result the single-process search would return: counters sum
// (they are per-leaf deterministic), and each shard's best, top-K and
// Pareto front fold in through the merge that joins a search's workers,
// with the global sequence numbers breaking ties. The shards may be given
// in any order but
// must form a complete partition: same Count, every Index exactly once,
// and agreeing TopK/Pareto settings. The one non-mergeable counter is
// CacheHits (per-process memo warm-up); it is summed, and callers that
// need byte-identical output across process splits must omit it, as
// calculon's canonical JSON does.
func MergeResults(shards []ShardResult) (Result, error) {
	if len(shards) == 0 {
		return Result{}, fmt.Errorf("search: merge: no shards")
	}
	if k := shards[0].TopK; k < 0 {
		return Result{}, fmt.Errorf("search: merge: negative top-k %d", k)
	}
	n := shards[0].Shard.Count
	if len(shards) != n {
		return Result{}, fmt.Errorf("search: merge: have %d shards, shard set says %d", len(shards), n)
	}
	seen := make([]bool, n)
	for _, s := range shards {
		if s.Shard.Count != n {
			return Result{}, fmt.Errorf("search: merge: shard %s disagrees on the shard count %d", s.Shard, n)
		}
		if err := s.Shard.Validate(); err != nil {
			return Result{}, err
		}
		if seen[s.Shard.Index] {
			return Result{}, fmt.Errorf("search: merge: duplicate shard %s", s.Shard)
		}
		seen[s.Shard.Index] = true
		if s.TopK != shards[0].TopK || s.Pareto != shards[0].Pareto {
			return Result{}, fmt.Errorf("search: merge: shard %s disagrees on top-k/pareto settings", s.Shard)
		}
	}

	merged := &workerState{fold: fold{topK: shards[0].TopK, pareto: shards[0].Pareto}}
	for i := range shards {
		s := &shards[i]
		merged.Counts.add(s.Counts)
		if s.Best != nil {
			merged.offer(s.Best.Seq, &s.Best.Result)
		}
		merged.merge(&fold{top: s.Top, front: s.Front})
	}
	return resultFrom(merged), nil
}
