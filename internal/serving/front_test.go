package serving

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// chainMismatch routes a candidate stream into the buckets of budgets
// (ascending) as the sweep's fold does — each candidate, in seq order,
// through offer into the bucket of the first budget its Procs fit — chains
// them on workers goroutines, and compares every budget's front with the
// reference compaction of the candidates that fit it, describing the first
// difference.
func chainMismatch(stream []Deployment, budgets []int, workers int) string {
	buckets := make([][]candidate, len(budgets))
	for _, d := range stream {
		k, _ := slices.BinarySearch(budgets, d.Procs)
		if k == len(budgets) {
			continue
		}
		buckets[k] = offer(buckets[k], candidate{
			cost: d.CostPerMToken, user: d.UserTokensPerSec, cluster: d.ClusterTokensPerSec, seq: d.Seq,
		})
	}
	if err := chainFronts(context.Background(), workers, buckets); err != nil {
		return err.Error()
	}
	for k, n := range budgets {
		var fit []Deployment
		for _, d := range stream {
			if d.Procs <= n {
				fit = append(fit, d)
			}
		}
		if msg := frontMismatch(buckets[k], referenceCompact(fit)); msg != "" {
			return fmt.Sprintf("budget %d of %v: %s", n, budgets, msg)
		}
	}
	return ""
}

// streamBuilder appends candidates to a stream with strictly increasing
// seqs, as the fold numbers them; each candidate's Procs is the budget it
// needs.
type streamBuilder struct {
	pts []Deployment
	seq int
}

func (s *streamBuilder) add(cost, user, cluster float64, procs int) {
	s.seq++
	s.pts = append(s.pts, Deployment{Seq: s.seq, Procs: procs, CostPerMToken: cost, UserTokensPerSec: user, ClusterTokensPerSec: cluster})
}

// replicaRun appends one engine's replica loop the way the fold prices it:
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
		s.add(costPerMToken(procs, cluster, hourly), user, cluster, procs)
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
				s.add(pick(costs), pick(users), pick(clusters), 1+rng.Intn(72))
			}
		case 1:
			s.replicaRun(1<<rng.Intn(4), 1+rng.Intn(20), pick(users), pick(rates), rng.Intn(3) == 0)
		default:
			for j := 1 + rng.Intn(6); j > 0 && len(s.pts) > 0; j-- {
				d := s.pts[rng.Intn(len(s.pts))]
				s.add(d.CostPerMToken, d.UserTokensPerSec, d.ClusterTokensPerSec, 1+rng.Intn(72))
			}
		}
	}
	return s.pts
}

// budgetList turns the bits of mask into ascending budgets: bit j set
// means 8(j+1) processors. An empty mask is the one budget 64.
func budgetList(mask uint8) []int {
	var budgets []int
	for j := 0; j < 8; j++ {
		if mask&(1<<j) != 0 {
			budgets = append(budgets, 8*(j+1))
		}
	}
	if len(budgets) == 0 {
		budgets = []int{64}
	}
	return budgets
}

// TestFrontierCompaction pins the fold on five hand-placed points: a
// dominated one and an objective-equal duplicate drop, and the survivors
// come out cheapest first.
func TestFrontierCompaction(t *testing.T) {
	var s streamBuilder
	s.add(5, 10, 100, 1)
	// Dominated on every axis.
	s.add(6, 9, 90, 1)
	// Objective-equal duplicate of seq 1: deduplicated, lowest seq kept.
	s.add(5, 10, 100, 1)
	// Trades user rate for cluster rate: survives.
	s.add(5, 5, 200, 1)
	// Cheaper but worse everywhere else: survives.
	s.add(1, 1, 10, 1)
	got := foldFront(s.pts)
	if len(got) != 3 || got[0].seq != 5 || got[1].seq != 1 || got[2].seq != 4 {
		t.Fatalf("wrong survivors/order: %+v", got)
	}
}

// TestFrontMatchesReference is the fold's proof obligation: on tie-heavy
// random streams the tail filter, the one sort and the staircase sweep must
// keep exactly the reference compaction's survivors, in its order and with
// its seqs — over the whole stream, and at every budget of a random list
// once the stream is routed into the budgets' buckets and chained.
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
		if msg := chainMismatch(stream, budgetList(uint8(rng.Intn(256))), 1+rng.Intn(3)); msg != "" {
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

// decodeStream turns fuzz bytes into a candidate stream, four bytes per
// step. A step whose first byte has its high bit set is a replica-loop run,
// each candidate needing the processors it prices; any other step is one
// candidate with quantized objectives needing 1 + (fourth byte mod 72)
// processors, which may be more than any budget holds.
func decodeStream(data []byte) []Deployment {
	costs := []float64{0.5, 1, 2, 3, math.Inf(1)}
	users := []float64{1, 5, 10, 20}
	clusters := []float64{10, 50, 100, 200}
	rates := []float64{0, 1.5, 7, 40}
	var s streamBuilder
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, p := data[0], data[1], data[2], data[3]
		if op&0x80 != 0 {
			s.replicaRun(1<<(op>>4&3), int(op&0x0f)+1, users[int(a)%len(users)], rates[int(b)%len(rates)], op&0x40 != 0)
			continue
		}
		s.add(costs[int(op)%len(costs)], users[int(a)%len(users)], clusters[int(b)%len(clusters)], 1+int(p)%72)
	}
	return s.pts
}

// FuzzFront folds byte-decoded candidate streams through the production
// fold and the reference compaction; the survivors must match exactly, for
// the whole stream and at every budget the mask draws (budgetList) once
// each candidate enters the bucket of the first budget it fits and the
// buckets are chained.
func FuzzFront(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0xff), []byte{0, 2, 2, 9, 1, 1, 1, 30, 0, 2, 2, 60, 4, 3, 3, 5})
	f.Add(uint8(0x81), []byte{0x85, 1, 2, 0, 0x93, 1, 2, 0, 0xc7, 0, 3, 0, 2, 2, 2, 40})
	// An objective-equal pair whose lower seq enters at the later budget:
	// the merge must keep it over its twin from the earlier front.
	f.Add(uint8(0x81), []byte{1, 1, 1, 50, 1, 1, 1, 3})
	// A later budget's point covers the earlier front's: the merge must
	// drop it.
	f.Add(uint8(0x11), []byte{2, 1, 1, 3, 1, 2, 2, 30})
	f.Fuzz(func(t *testing.T, mask uint8, data []byte) {
		stream := decodeStream(data)
		if msg := frontMismatch(foldFront(stream), referenceCompact(stream)); msg != "" {
			t.Fatalf("%d candidates: %s", len(stream), msg)
		}
		if msg := chainMismatch(stream, budgetList(mask), 1+len(data)%3); msg != "" {
			t.Fatalf("%d candidates: %s", len(stream), msg)
		}
	})
}
