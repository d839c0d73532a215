package search

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// stripCacheHits zeroes the one counter that is not process-split
// invariant: each sharded process warms its own block-profile memo, so the
// hit count depends on how the space was split (exactly why the canonical
// CLI JSON omits it). Everything else must match bit for bit.
func stripCacheHits(r Result) Result {
	r.CacheHits = 0
	return r
}

func runShards(t *testing.T, m model.LLM, sys system.System, opts Options, n int) Result {
	t.Helper()
	shards := make([]ShardResult, 0, n)
	for i := 0; i < n; i++ {
		sr, err := ExecutionShard(context.Background(), m, sys, opts, Shard{Index: i, Count: n})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i+1, n, err)
		}
		shards = append(shards, sr)
	}
	// Merge in scrambled order: the merge must not depend on arrival order.
	rand.New(rand.NewSource(int64(n))).Shuffle(len(shards), func(i, j int) {
		shards[i], shards[j] = shards[j], shards[i]
	})
	merged, err := MergeResults(shards)
	if err != nil {
		t.Fatalf("merge %d shards: %v", n, err)
	}
	return merged
}

// TestShardPartitionProperty is the randomized sharding property: for any
// shard count — 1, a divisor, coprime to the triple count, or more shards
// than triples (empty ranges) — running every shard separately and merging
// reproduces the single-process result exactly, counters included (modulo
// CacheHits, see stripCacheHits). Every third draw is a best-only search.
func TestShardPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	models := []string{"gpt3-13B", "megatron-22B", "gpt2-1.5B"}
	procChoices := []int{8, 16, 32}
	features := []execution.FeatureSet{
		execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll,
	}

	const draws = 6
	for i := 0; i < draws; i++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).WithBatch(8 << rng.Intn(3))
		procs := procChoices[rng.Intn(len(procChoices))]
		sys := system.A100(procs)
		switch rng.Intn(3) {
		case 0:
			sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 4)
		case 1:
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
		opts := Options{
			Enum: execution.EnumOptions{
				Features:      features[rng.Intn(len(features))],
				MaxTP:         8,
				MaxInterleave: 2,
			},
			Workers: 1 + rng.Intn(3),
			TopK:    1 + rng.Intn(6),
			Pareto:  true,
		}
		if i%3 == 0 {
			// A best-only search: no top-K list and no front.
			opts.TopK, opts.Pareto = 0, false
		}
		want, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			t.Fatalf("draw %d: single-process search: %v", i, err)
		}

		nTriples := len(opts.Enum.Triples(m))
		counts := []int{1, 3, 2 + rng.Intn(5), nTriples + 3} // incl. empty ranges
		for _, n := range counts {
			got := runShards(t, m, sys, opts, n)
			if !reflect.DeepEqual(stripCacheHits(got), stripCacheHits(want)) {
				t.Errorf("draw %d: %d-shard merge diverges from single process\n got %+v\nwant %+v",
					i, n, stripCacheHits(got), stripCacheHits(want))
			}
		}
	}
}

// TestShardRangesTile checks the range derivation: for any (count, total),
// the ranges are contiguous, in order, and tile [0,total) exactly.
func TestShardRangesTile(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 100, 101} {
		for _, n := range []int{1, 2, 3, 7, 100, 150} {
			next := 0
			for i := 0; i < n; i++ {
				lo, hi := shardRange(Shard{Index: i, Count: n}, total)
				if lo != next || hi < lo {
					t.Fatalf("total %d count %d: shard %d range [%d,%d), want lo %d", total, n, i, lo, hi, next)
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total %d count %d: ranges end at %d", total, n, next)
			}
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"1/1": {0, 1},
		"1/3": {0, 3},
		"3/3": {2, 3},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, got, err, want)
		}
		if got.String() != in {
			t.Errorf("Shard%+v.String() = %q, want %q", got, got.String(), in)
		}
	}
	for _, in := range []string{"", "3", "0/3", "4/3", "-1/3", "1/0", "a/b", "1/", "2x/3", "1/3junk", "1/3/5"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) succeeded, want error", in)
		}
	}
}

// TestMergeResultsRejectsBadSets checks the partition validation: missing,
// duplicate, miscounted, and setting-mismatched shard sets must all refuse
// to merge rather than produce a silently wrong Result.
func TestMergeResultsRejectsBadSets(t *testing.T) {
	m := model.MustPreset("gpt2-1.5B").WithBatch(8)
	sys := system.A100(8)
	opts := Options{Enum: execution.EnumOptions{Features: execution.FeatureBaseline}, TopK: 2, Pareto: true}
	var shards []ShardResult
	for i := 0; i < 3; i++ {
		sr, err := ExecutionShard(context.Background(), m, sys, opts, Shard{Index: i, Count: 3})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sr)
	}

	if _, err := MergeResults(nil); err == nil {
		t.Error("empty set merged")
	}
	if _, err := MergeResults(shards[:2]); err == nil {
		t.Error("incomplete set merged")
	}
	dup := []ShardResult{shards[0], shards[1], shards[1]}
	if _, err := MergeResults(dup); err == nil {
		t.Error("duplicate shard merged")
	}
	bad := []ShardResult{shards[0], shards[1], shards[2]}
	bad[2].Shard.Count = 4
	if _, err := MergeResults(bad); err == nil {
		t.Error("count mismatch merged")
	}
	bad = []ShardResult{shards[0], shards[1], shards[2]}
	bad[1].TopK = 99
	if _, err := MergeResults(bad); err == nil {
		t.Error("top-k mismatch merged")
	}
	bad = []ShardResult{shards[0], shards[1], shards[2]}
	for i := range bad {
		bad[i].TopK = -1
	}
	if _, err := MergeResults(bad); err == nil {
		t.Error("negative top-k merged")
	}
}

// TestExecutionShardRejections pins the option rules specific to shards.
func TestExecutionShardRejections(t *testing.T) {
	m := model.MustPreset("gpt2-1.5B").WithBatch(8)
	sys := system.A100(8)
	opts := Options{Enum: execution.EnumOptions{Features: execution.FeatureBaseline}}
	if _, err := ExecutionShard(context.Background(), m, sys, opts, Shard{Index: 0, Count: 0}); err == nil {
		t.Error("invalid shard accepted")
	}
	o := opts
	o.CollectRates = true
	if _, err := ExecutionShard(context.Background(), m, sys, o, Shard{Index: 0, Count: 2}); err == nil {
		t.Error("CollectRates accepted on a sharded search")
	}
}

// TestWorkChunksTileTheSpace: the work chunks, claimed in order through
// their closed-form mapping, are the space's segments in enumeration order.
// Each chunk's roots (MicrobatchSegments) walk into exactly the leaves
// EnumerateTriple lists from the chunk's first sequence number, a pruned
// subtree's one chunk stands for its TripleLeafCount leaves, and the
// chunks' leaves sum to the shard's LeafCount and, over all shards, to
// SpaceSize. Randomized over models, feature sets, PinBeneficial,
// MaxInterleave, pinned degrees, the second tier, first-tier capacities
// that prune some subtrees, and shard splits.
func TestWorkChunksTileTheSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	models := []string{"gpt3-13B", "megatron-22B", "gpt2-1.5B", "llama-65B"}
	features := []execution.FeatureSet{
		execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll,
	}
	pruned := 0
	for draw := 0; draw < 60; draw++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).WithBatch([]int{8, 16, 24, 32}[rng.Intn(4)])
		procs := []int{4, 8, 12, 16, 24}[rng.Intn(5)]
		enum := execution.EnumOptions{
			Procs:         procs,
			Features:      features[rng.Intn(len(features))],
			HasMem2:       rng.Intn(2) == 0,
			MaxTP:         []int{0, 4, 8}[rng.Intn(3)],
			MaxInterleave: []int{0, 1, 2, 3}[rng.Intn(4)],
			PinBeneficial: rng.Intn(2) == 0,
		}
		switch rng.Intn(6) {
		case 0:
			enum.FixedTP = []int{1, 2, 4}[rng.Intn(3)]
		case 1:
			enum.FixedPP = []int{1, 2, 4}[rng.Intn(3)]
		case 2:
			enum.FixedDP = []int{1, 2}[rng.Intn(2)]
		}
		sys := system.A100(procs)
		sys = sys.WithMem1Capacity(sys.Mem1.Capacity / units.Bytes(int(1)<<rng.Intn(5)))
		if enum.HasMem2 {
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
		screen := execution.NewPreScreen(m, execution.Limits{Procs: procs, Mem1: sys.Mem1.Capacity, Mem2: sys.Mem2.Capacity})
		tog := enum.Toggles()
		segLen := tog.Len()

		// The reference: the first leaf of every segment, by sequence number.
		triples := enum.Triples(m)
		firsts := map[int]execution.Strategy{}
		seq := 0
		for _, tpd := range triples {
			enum.EnumerateTriple(m, tpd, func(s execution.Strategy) bool {
				if seq%segLen == 0 {
					firsts[seq] = s
				}
				seq++
				return true
			})
		}
		space := seq
		if space != enum.SpaceSize(m) {
			t.Fatalf("draw %d: EnumerateTriple lists %d leaves, SpaceSize %d", draw, space, enum.SpaceSize(m))
		}

		n := 1 + rng.Intn(len(triples)+2)
		seq = 0
		for s := 0; s < n; s++ {
			lo, hi := shardRange(Shard{Index: s, Count: n}, len(triples))
			seqBase := enum.LeafCount(m, triples[:lo])
			if seqBase != seq {
				t.Fatalf("draw %d shard %d/%d: starts at seq %d, the previous shard ended at %d", draw, s, n, seqBase, seq)
			}
			c := newWorkChunks(&enum, &m, screen, triples[lo:hi], seqBase)
			var root execution.Strategy
			for i := range c.mbs {
				row, mb, first := c.at(i)
				if first != seq {
					t.Fatalf("draw %d shard %d/%d chunk %d: first seq %d, want %d", draw, s, n, i, first, seq)
				}
				if row.pruned {
					if mb != 0 || screen.CheckTriple(enum, row.tpd) == nil {
						t.Fatalf("draw %d chunk %d: pruned row of microbatch %d of triple %v, which CheckTriple passes", draw, i, mb, row.tpd)
					}
					pruned++
					seq += enum.TripleLeafCount(m, row.tpd)
					continue
				}
				enum.MicrobatchSegments(&m, row.tpd, mb, &root, func(r *execution.Strategy) bool {
					want, ok := firsts[seq]
					tog.Walk(r, func(leaf *execution.Strategy) bool {
						if !ok || *leaf != want {
							t.Fatalf("draw %d chunk %d (triple %v, microbatch %d): segment at seq %d starts %+v, EnumerateTriple has %+v",
								draw, i, row.tpd, mb, seq, *leaf, want)
						}
						return false
					})
					seq += segLen
					return true
				})
			}
			if got, want := seq-seqBase, enum.LeafCount(m, triples[lo:hi]); got != want {
				t.Fatalf("draw %d shard %d/%d: chunks hold %d leaves, LeafCount %d", draw, s, n, got, want)
			}
		}
		if seq != space {
			t.Fatalf("draw %d: the chunks hold %d leaves, SpaceSize %d", draw, seq, space)
		}
	}
	if pruned == 0 {
		t.Fatal("no draw pruned a subtree")
	}
}
