package search

import (
	"math"
	"sort"

	"calculon/internal/perf"
	"calculon/internal/units"
)

// SeqResult is one scored configuration together with its global
// enumeration sequence number — the deterministic tie-break key that makes
// partial results mergeable into exactly the single-process answer.
type SeqResult struct {
	Seq    int         `json:"seq"`
	Result perf.Result `json:"result"`
	// mem1 is Result.Mem1.Total(), the staircase's memory key, kept by the
	// front for each point it takes (offer); the wire form leaves it out.
	mem1 units.Bytes
}

// fold is a search's running answer over the feasible results offered to
// it: the ranked top list, whose head is the best, the time-vs-memory Pareto
// staircase and, when collected, the sample rates. Each part admits a
// candidate by one test on its keys (entersTop, frontSlot), which keeps and
// offer share. What the parts hold depends only on the set offered, never
// on its order or split, so one merge serves workers and shards alike.
type fold struct {
	topK   int
	pareto bool
	// top holds the max(topK, 1) best results, best first under ahead: a
	// best-only search (topK 0) still ranks one.
	top []SeqResult
	// front is the Pareto staircase: sorted by (BatchTime, Mem1.Total(),
	// seq) with strictly decreasing memory, so it is always the exact front
	// of every candidate offered so far.
	front []SeqResult
	rates []float64
}

// entersTop is the top list's admission test: the list is not full, or the
// candidate ranks ahead of its last, which then drops out.
func (f *fold) entersTop(rate float64, seq int) bool {
	n := len(f.top)
	return n < max(f.topK, 1) || ahead(rate, seq, &f.top[n-1])
}

// frontSlot is the front's admission test: it returns the candidate's place
// in the staircase and whether the candidate survives there, which it does
// when the fold keeps a front and the point before uses more memory.
func (f *fold) frontSlot(t units.Seconds, m units.Bytes, seq int) (int, bool) {
	s := f.front
	i := sort.Search(len(s), func(j int) bool { return precedes(t, m, seq, &s[j]) })
	return i, f.pareto && (i == 0 || !(s[i-1].mem1 <= m))
}

// frontLimit returns the first-tier memory from which no candidate of batch
// time t or more, at any seq, enters the front: the memory of the last
// point strictly faster than t, which such a candidate's slot follows and
// whose memory is no lower than that of any point between; +Inf when no
// point is faster, and -Inf when the fold keeps no front.
func (f *fold) frontLimit(t units.Seconds) units.Bytes {
	if !f.pareto {
		return units.Bytes(math.Inf(-1))
	}
	s := f.front
	i := sort.Search(len(s), func(j int) bool { return !(s[j].Result.BatchTime < t) })
	if i == 0 {
		return units.Bytes(math.Inf(1))
	}
	return s[i-1].mem1
}

// keeps reports whether offer would keep a feasible leaf, by the parts'
// admission tests on its keys alone. It is monotone in batch time: a lower
// BatchTime, with the higher SampleRate it gives, ranks no worse and slots
// no later on the staircase, so keys that bound the batch time from below
// keep every leaf the exact keys keep.
func (f *fold) keeps(seq int, k *perf.Keys) bool {
	if f.entersTop(k.SampleRate, seq) {
		return true
	}
	_, ok := f.frontSlot(k.BatchTime, k.Mem1, seq)
	return ok
}

// offer copies one feasible result into every part whose admission test it
// passes. A merge may offer a result the fold already holds (a shard's
// best is in its top too); it sorts right after itself in the top and is
// not taken twice, and the front turns it away by its test.
func (f *fold) offer(seq int, res *perf.Result) {
	rate := res.SampleRate
	if f.entersTop(rate, seq) {
		t := f.top
		i := sort.Search(len(t), func(j int) bool { return ahead(rate, seq, &t[j]) })
		if i == 0 || t[i-1].Seq != seq {
			if len(t) < max(f.topK, 1) {
				t = append(t, SeqResult{})
			}
			copy(t[i+1:], t[i:])
			t[i].Seq, t[i].Result = seq, *res
			f.top = t
		}
	}
	// The points the candidate dominates are the run from its slot whose
	// memory is no smaller; it replaces them.
	m := res.Mem1.Total()
	if i, ok := f.frontSlot(res.BatchTime, m, seq); ok {
		s := f.front
		e := i
		for e < len(s) && s[e].mem1 >= m {
			e++
		}
		if e == i {
			s = append(s, SeqResult{})
			copy(s[i+1:], s[i:])
		} else {
			s = append(s[:i+1], s[e:]...)
		}
		s[i].Seq, s[i].Result, s[i].mem1 = seq, *res, m
		f.front = s
	}
}

// merge folds a partial, a worker's fold or a shard's (MergeResults), into
// f by offering every result it holds and appends its rates. This is exact:
// the union of the partials' parts holds the global top list and front, and
// offer keeps the max(K, 1) best and the exact front of whatever set it is
// offered, so the extra points change nothing.
func (f *fold) merge(o *fold) {
	for _, part := range [][]SeqResult{o.top, o.front} {
		for i := range part {
			f.offer(part[i].Seq, &part[i].Result)
		}
	}
	f.rates = append(f.rates, o.rates...)
}

// results drops the sequence numbers of a part, keeping its order.
func results(part []SeqResult) []perf.Result {
	var out []perf.Result
	for i := range part {
		out = append(out, part[i].Result)
	}
	return out
}

// ahead reports whether the candidate (rate, seq) is preferred over s:
// higher sample rate, with enumeration order as the deterministic tie-break.
// It takes the candidate's keys and a pointer, so ranking never copies a
// Result.
func ahead(rate float64, seq int, s *SeqResult) bool {
	if rate != s.Result.SampleRate {
		return rate > s.Result.SampleRate
	}
	return seq < s.Seq
}

// precedes reports whether the candidate (t, m, seq) sorts before the
// front point s in the staircase order: batch time, then first-tier
// memory, then enumeration order.
func precedes(t units.Seconds, m units.Bytes, seq int, s *SeqResult) bool {
	if t != s.Result.BatchTime {
		return t < s.Result.BatchTime
	}
	if m != s.mem1 {
		return m < s.mem1
	}
	return seq < s.Seq
}
