package search

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"calculon/internal/perf"
	"calculon/internal/units"
)

// tiedStream draws n feasible results with heavy ties: sample rates and batch
// times come from three values each, and first-tier memory from three totals
// split between two components in several ways, so equal Mem1.Total() hides
// different Results. Sequence numbers are a shuffled permutation of [0,n);
// ProcsUsed records the seq so every Result is distinguishable.
func tiedStream(rng *rand.Rand, n int) []SeqResult {
	seqs := rng.Perm(n)
	out := make([]SeqResult, n)
	for i, seq := range seqs {
		var r perf.Result
		r.SampleRate = float64(1 + rng.Intn(3))
		r.BatchTime = units.Seconds(1 + rng.Intn(3))
		total := float64(10 * (1 + rng.Intn(3)))
		split := float64(rng.Intn(4))
		r.Mem1.Weights = units.Bytes(split)
		r.Mem1.Activations = units.Bytes(total - split)
		r.ProcsUsed = seq
		out[i] = SeqResult{Seq: seq, Result: r}
	}
	return out
}

// referenceFold is the brute-force answer: the whole stream sorted by rank
// and cut at K, and ParetoFront over the stream in seq order, so its stable
// sort orders exact ties by seq.
func referenceFold(items []SeqResult, topK int, pareto bool) Result {
	out := Result{Counts: Counts{Feasible: len(items)}}
	if len(items) == 0 {
		return out
	}
	byRank := append([]SeqResult(nil), items...)
	sort.Slice(byRank, func(i, j int) bool {
		a, b := &byRank[i], &byRank[j]
		if a.Result.SampleRate != b.Result.SampleRate {
			return a.Result.SampleRate > b.Result.SampleRate
		}
		return a.Seq < b.Seq
	})
	out.Best = byRank[0].Result
	for i := 0; i < topK && i < len(byRank); i++ {
		out.Top = append(out.Top, byRank[i].Result)
	}
	if pareto {
		bySeq := append([]SeqResult(nil), items...)
		sort.Slice(bySeq, func(i, j int) bool { return bySeq[i].Seq < bySeq[j].Seq })
		results := make([]perf.Result, len(bySeq))
		for i := range bySeq {
			results[i] = bySeq[i].Result
		}
		out.Pareto = ParetoFront(results)
	}
	return out
}

// add folds one feasible result Result-first, as the merges fold theirs.
func (ws *workerState) add(seq int, res *perf.Result) {
	ws.Feasible++
	ws.offer(seq, res)
}

// addKeysFirst folds one feasible result as a search worker folds a leaf:
// keeps decides on the keys k at sequence number gate first — the class
// gate, at the segment's first seq, no later than the leaf's — then on k at
// the leaf's seq, where k is the exact keys or bound keys no worse in rank
// and no later on the staircase, then on the exact keys, and only a leaf
// all three keep is offered. keeps must be sound and exact: offering a
// leaf turned away to a copy of the state must leave the copy unchanged,
// and offering one admitted (so kept on its exact keys) must change it.
func addKeysFirst(t *testing.T, ws *workerState, gate, seq int, res *perf.Result, k perf.Keys) {
	t.Helper()
	ws.Feasible++
	exact := perf.Keys{BatchTime: res.BatchTime, SampleRate: res.SampleRate, Mem1: res.Mem1.Total()}
	admitted := ws.keeps(gate, &k) && ws.keeps(seq, &k) && ws.keeps(seq, &exact)
	c := *ws
	c.top, c.front = slices.Clone(ws.top), slices.Clone(ws.front)
	c.offer(seq, res)
	switch changed := !reflect.DeepEqual(&c, ws); {
	case admitted && !changed:
		t.Fatalf("keys %+v admitted seq %d (%+v), which offer does not keep", k, seq, exact)
	case !admitted && changed:
		t.Fatalf("keys %+v turned away seq %d (%+v), which offer keeps", k, seq, exact)
	case admitted:
		ws.offer(seq, res)
	}
}

// How a fold test state takes its leaves.
const (
	resultFirst = iota // offer every Result, as the merges do
	keysFirst          // keeps on the exact keys, then offer
	boundFirst         // keeps on bound keys at a gate seq, then at the leaf's, then on the exact keys, then offer
)

// foldParts deals the stream at random into parts states, each folding its
// share leaf by leaf in the given mode. Bound keys are the exact keys with
// the batch time lowered and the sample rate raised by 0 or 1, so they tie
// the exact keys, or other leaves, as often as not, and the gate seq is
// the leaf's lowered by 0 to 2, so it ties other leaves' seqs too.
func foldParts(t *testing.T, rng *rand.Rand, items []SeqResult, parts, topK int, pareto bool, mode int) []*workerState {
	states := make([]*workerState, parts)
	for i := range states {
		states[i] = &workerState{fold: fold{topK: topK, pareto: pareto}}
	}
	for i := range items {
		ws := states[rng.Intn(parts)]
		res, seq := &items[i].Result, items[i].Seq
		k := perf.Keys{BatchTime: res.BatchTime, SampleRate: res.SampleRate, Mem1: res.Mem1.Total()}
		switch mode {
		case resultFirst:
			ws.add(seq, res)
		case boundFirst:
			k.BatchTime -= units.Seconds(rng.Intn(2))
			k.SampleRate += float64(rng.Intn(2))
			addKeysFirst(t, ws, seq-rng.Intn(3), seq, res, k)
		default:
			addKeysFirst(t, ws, seq, seq, res, k)
		}
	}
	return states
}

// TestFoldMatchesReference: folding a tied stream through 1–8 worker states
// merged in random order — Result-first, keys-first, or bound-first as the
// search's workers fold leaves — or through shard partials merged by
// MergeResults in random order, gives exactly the brute-force Best, Top (in
// order) and Pareto front.
func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		items := tiedStream(rng, rng.Intn(120))
		topK := rng.Intn(7)
		pareto := rng.Intn(4) != 0
		want := referenceFold(items, topK, pareto)

		for _, mode := range []int{resultFirst, keysFirst, boundFirst} {
			states := foldParts(t, rng, items, 1+rng.Intn(8), topK, pareto, mode)
			merged := &workerState{fold: fold{topK: topK, pareto: pareto}}
			for _, i := range rng.Perm(len(states)) {
				merged.Counts.add(states[i].Counts)
				merged.merge(&states[i].fold)
			}
			if got := resultFrom(merged); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d topK=%d pareto=%v mode=%d): worker merge\n got  %+v\n want %+v",
					trial, len(items), topK, pareto, mode, summarize(got), summarize(want))
			}
		}

		states := foldParts(t, rng, items, 1+rng.Intn(8), topK, pareto, resultFirst)
		shards := make([]ShardResult, len(states))
		for i, ws := range states {
			shards[i] = ws.shardResult(Shard{Index: i, Count: len(states)})
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		got, err := MergeResults(shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d topK=%d pareto=%v): shard merge\n got  %+v\n want %+v",
				trial, len(items), topK, pareto, summarize(got), summarize(want))
		}
	}
}

// summarize renders a Result as the seqs (ProcsUsed) of its members.
func summarize(r Result) map[string][]int {
	seqs := func(rs []perf.Result) []int {
		var out []int
		for _, x := range rs {
			out = append(out, x.ProcsUsed)
		}
		return out
	}
	return map[string][]int{"best": {r.Best.ProcsUsed}, "top": seqs(r.Top), "pareto": seqs(r.Pareto)}
}

// TestFoldRejectCopiesNothing: a feasible leaf that survives neither the
// top-K cutoff nor the staircase is dropped without allocating.
func TestFoldRejectCopiesNothing(t *testing.T) {
	ws := &workerState{fold: fold{topK: 3, pareto: true}}
	items := tiedStream(rand.New(rand.NewSource(1)), 50)
	for i := range items {
		ws.add(items[i].Seq, &items[i].Result)
	}
	var loser perf.Result
	loser.SampleRate = 0.5
	loser.BatchTime = 9
	loser.Mem1.Weights = 99
	top, front := len(ws.top), len(ws.front)
	allocs := testing.AllocsPerRun(100, func() { ws.add(1000, &loser) })
	if allocs != 0 {
		t.Errorf("rejected add allocates %.1f times, want 0", allocs)
	}
	if len(ws.top) != top || len(ws.front) != front || ws.top[0].Seq == 1000 {
		t.Error("a dominated, out-ranked leaf was admitted")
	}
}
