package serving

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// dominates reports whether a is at least as good as b on every objective
// (equality on all three counts, deduplicating the frontier).
func dominates(a, b *Deployment) bool {
	return a.CostPerMToken <= b.CostPerMToken &&
		a.UserTokensPerSec >= b.UserTokensPerSec &&
		a.ClusterTokensPerSec >= b.ClusterTokensPerSec
}

// referenceCompact is the reference frontier: sort the whole candidate
// stream by (cost asc, user rate desc, cluster rate desc, seq asc) and drop
// every point weakly dominated by an earlier survivor. A point equal on all
// three objectives counts as dominated, so each objective triple keeps
// exactly one (lowest-seq) representative. It is the compaction the search
// ran before the small-key fold, kept here as the fold's oracle.
func referenceCompact(stream []Deployment) []Deployment {
	pts := append([]Deployment(nil), stream...)
	sort.Slice(pts, func(i, j int) bool {
		a, b := &pts[i], &pts[j]
		if a.CostPerMToken != b.CostPerMToken {
			return a.CostPerMToken < b.CostPerMToken
		}
		if a.UserTokensPerSec != b.UserTokensPerSec {
			return a.UserTokensPerSec > b.UserTokensPerSec
		}
		if a.ClusterTokensPerSec != b.ClusterTokensPerSec {
			return a.ClusterTokensPerSec > b.ClusterTokensPerSec
		}
		return a.Seq < b.Seq
	})
	var kept []Deployment
	for _, d := range pts {
		dominated := false
		for k := range kept {
			if dominates(&kept[k], &d) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, d)
		}
	}
	return kept
}

// foldFront runs a candidate stream through the production fold: the tail
// filter on every offer, then one sort and the staircase sweep.
func foldFront(stream []Deployment) []candidate {
	var buf []candidate
	for _, d := range stream {
		buf = offer(buf, candidate{
			cost: d.CostPerMToken, user: d.UserTokensPerSec, cluster: d.ClusterTokensPerSec, seq: d.Seq,
		})
	}
	return paretoFront(buf)
}

// frontMismatch compares the fold's survivors with the reference element by
// element, Seq included, and describes the first difference.
func frontMismatch(got []candidate, want []Deployment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d survivors, reference keeps %d", len(got), len(want))
	}
	for k := range got {
		g, w := &got[k], &want[k]
		if g.seq != w.Seq || g.cost != w.CostPerMToken || g.user != w.UserTokensPerSec || g.cluster != w.ClusterTokensPerSec {
			return fmt.Sprintf("survivor %d: seq %d (%g, %g, %g), reference seq %d (%g, %g, %g)",
				k, g.seq, g.cost, g.user, g.cluster,
				w.Seq, w.CostPerMToken, w.UserTokensPerSec, w.ClusterTokensPerSec)
		}
	}
	return ""
}

// streamBuilder appends candidates to a stream with strictly increasing
// seqs, as compose numbers them.
type streamBuilder struct {
	pts []Deployment
	seq int
}

func (s *streamBuilder) add(cost, user, cluster float64) {
	s.seq++
	s.pts = append(s.pts, Deployment{Seq: s.seq, CostPerMToken: cost, UserTokensPerSec: user, ClusterTokensPerSec: cluster})
}

// replicaRun appends one engine's replica loop the way compose prices it:
// a fixed per-user rate, a cluster rate rising with the replica count, and
// the cost of the processors that takes (a zero rate costs +Inf). A split
// run also grows a prefill pool, so its processor count rises faster.
func (s *streamBuilder) replicaRun(engineProcs, replicas int, user, rate float64, split bool) {
	const hourly = 2.5
	for r := 1; r <= replicas; r++ {
		procs := r * engineProcs
		if split {
			procs += (1 + r/3) * engineProcs
		}
		cluster := float64(r) * rate
		s.add(costPerMToken(procs, cluster, hourly), user, cluster)
	}
}

// randomStream draws a tie-heavy candidate stream: objectives quantized to
// a few values (+Inf cost among them), verbatim repeats of earlier triples
// under later seqs, and replica-loop runs, in random segments.
func randomStream(rng *rand.Rand) []Deployment {
	pick := func(vals []float64) float64 { return vals[rng.Intn(len(vals))] }
	costs := []float64{0.5, 1, 2, 3, math.Inf(1)}[:2+rng.Intn(4)]
	users := []float64{1, 5, 10, 20}[:1+rng.Intn(4)]
	clusters := []float64{10, 50, 100, 200}[:1+rng.Intn(4)]
	rates := []float64{0, 1.5, 7, 40}
	var s streamBuilder
	for seg := rng.Intn(9); seg > 0; seg-- {
		switch rng.Intn(3) {
		case 0:
			for j := 1 + rng.Intn(24); j > 0; j-- {
				s.add(pick(costs), pick(users), pick(clusters))
			}
		case 1:
			s.replicaRun(1<<rng.Intn(4), 1+rng.Intn(20), pick(users), pick(rates), rng.Intn(3) == 0)
		default:
			for j := 1 + rng.Intn(6); j > 0 && len(s.pts) > 0; j-- {
				d := s.pts[rng.Intn(len(s.pts))]
				s.add(d.CostPerMToken, d.UserTokensPerSec, d.ClusterTokensPerSec)
			}
		}
	}
	return s.pts
}

// TestFrontierCompaction pins the fold on five hand-placed points: a
// dominated one and an objective-equal duplicate drop, and the survivors
// come out cheapest first.
func TestFrontierCompaction(t *testing.T) {
	var s streamBuilder
	s.add(5, 10, 100)
	// Dominated on every axis.
	s.add(6, 9, 90)
	// Objective-equal duplicate of seq 1: deduplicated, lowest seq kept.
	s.add(5, 10, 100)
	// Trades user rate for cluster rate: survives.
	s.add(5, 5, 200)
	// Cheaper but worse everywhere else: survives.
	s.add(1, 1, 10)
	got := foldFront(s.pts)
	if len(got) != 3 || got[0].seq != 5 || got[1].seq != 1 || got[2].seq != 4 {
		t.Fatalf("wrong survivors/order: %+v", got)
	}
}

// TestFrontMatchesReference is the fold's proof obligation: on tie-heavy
// random streams the tail filter, the one sort and the staircase sweep must
// keep exactly the reference compaction's survivors, in its order and with
// its seqs.
func TestFrontMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const streams = 600
	var sawTie, sawInf, sawEmpty bool
	for i := 0; i < streams; i++ {
		stream := randomStream(rng)
		want := referenceCompact(stream)
		if msg := frontMismatch(foldFront(stream), want); msg != "" {
			t.Fatalf("stream %d (%d candidates): %s", i, len(stream), msg)
		}
		sawEmpty = sawEmpty || len(stream) == 0
		seen := map[[3]float64]bool{}
		for _, d := range stream {
			k := [3]float64{d.CostPerMToken, d.UserTokensPerSec, d.ClusterTokensPerSec}
			sawTie = sawTie || seen[k]
			seen[k] = true
			sawInf = sawInf || math.IsInf(d.CostPerMToken, 1)
		}
	}
	if !sawTie || !sawInf || !sawEmpty {
		t.Errorf("streams missed a case: equal triples %v, +Inf cost %v, empty %v", sawTie, sawInf, sawEmpty)
	}
}

// decodeStream turns fuzz bytes into a candidate stream, three bytes per
// step. A step whose first byte has its high bit set is a replica-loop run;
// any other step is one candidate with quantized objectives.
func decodeStream(data []byte) []Deployment {
	costs := []float64{0.5, 1, 2, 3, math.Inf(1)}
	users := []float64{1, 5, 10, 20}
	clusters := []float64{10, 50, 100, 200}
	rates := []float64{0, 1.5, 7, 40}
	var s streamBuilder
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0], data[1], data[2]
		if op&0x80 != 0 {
			s.replicaRun(1<<(op>>4&3), int(op&0x0f)+1, users[int(a)%len(users)], rates[int(b)%len(rates)], op&0x40 != 0)
			continue
		}
		s.add(costs[int(op)%len(costs)], users[int(a)%len(users)], clusters[int(b)%len(clusters)])
	}
	return s.pts
}

// FuzzFront folds byte-decoded candidate streams through the production
// fold and the reference compaction; the survivors must match exactly.
func FuzzFront(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 2, 1, 1, 1, 0, 2, 2, 4, 3, 3})
	f.Add([]byte{0x85, 1, 2, 0x93, 1, 2, 0xc7, 0, 3, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := decodeStream(data)
		if msg := frontMismatch(foldFront(stream), referenceCompact(stream)); msg != "" {
			t.Fatalf("%d candidates: %s", len(stream), msg)
		}
	})
}
