package search

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Progress is a live, lock-free view into a running search. Attach one via
// Options.Progress and read it from any goroutine — a progress ticker, an
// HTTP status handler, a signal handler printing partial results — while the
// search runs. Workers flush counters once per work chunk (a microbatch row
// of a (t,p,d) subtree, or a pruned subtree), so a mid-flight Snapshot may
// lag the true position by at most one chunk per worker; once the search
// returns, the counters exactly match the returned Result.
//
// A single Progress may be shared across several searches (SystemSize and
// the budget sweep do this): counters and totals accumulate, and the rate
// reflects aggregate throughput since the first search started.
//
// Every field is written by worker goroutines and read concurrently by
// observers, so access goes through sync/atomic exclusively — calculonvet's
// atomiccounter analyzer enforces this at compile time.
//
//calculonvet:counter
type Progress struct {
	evaluated     atomic.Int64
	feasible      atomic.Int64
	prescreened   atomic.Int64
	cacheHits     atomic.Int64
	subtreePruned atomic.Int64
	storeHits     atomic.Int64
	total         atomic.Int64
	// startNano is the time the first search attached, in nanoseconds since
	// the Unix epoch; zero means not started.
	startNano atomic.Int64
	// mirror, when non-nil, receives a copy of every counter delta and total
	// this Progress records (see MirrorTo). Read on the flush path, so it
	// rides in an atomic pointer like every other field.
	mirror atomic.Pointer[Progress]
}

// MirrorTo subscribes agg to this Progress: every counter delta and total
// recorded here is also recorded on agg, so one aggregate Progress can give
// a fleet-wide view over many independent per-job Progresses without the
// jobs sharing one (which would blur their individual snapshots). A service
// wires each job's Progress to one aggregate and exposes both: per-job
// status from the job's own Snapshot, totals from the aggregate's.
//
// MirrorTo marks agg started (so its rate is measured from subscription
// time), may be called before the search attaches, and must not form a
// cycle. Passing nil unsubscribes.
func (p *Progress) MirrorTo(agg *Progress) {
	if agg != nil {
		agg.MarkStart()
	}
	p.mirror.Store(agg)
}

// MarkStart records the wall-clock start on first attachment; later calls
// keep the first start.
func (p *Progress) MarkStart() {
	p.startNano.CompareAndSwap(0, time.Now().UnixNano())
}

// Counts is a search's leaf tallies, the one type that carries them: a
// worker's running total and each work chunk's share of it, the flush into
// Progress, a shard partial and a Result. Tallies over disjoint sets of
// leaves merge by addition (add), so workers and shards recombine exactly.
type Counts struct {
	// Evaluated counts every strategy tried; Feasible those that could run
	// (the paper's 10,957,376 vs 1,974,902 for GPT-3 175B on 4,096 GPUs).
	Evaluated int `json:"evaluated"`
	Feasible  int `json:"feasible"`
	// PreScreened counts the evaluations rejected by the phase-1 analytic
	// filter before any layer-level work (a subset of Evaluated−Feasible);
	// CacheHits counts evaluations that reused a memoized block profile.
	PreScreened int `json:"pre_screened"`
	CacheHits   int `json:"cache_hits"`
	// SubtreePruned counts the strategies dropped at the lattice level:
	// leaves of (tp,pp,dp) subtrees whose closed-form bound proved every
	// toggle combination infeasible, accounted in closed form without being
	// enumerated. They are a subset of PreScreened (pruned leaves count as
	// Evaluated and PreScreened, exactly as the leaf-by-leaf path would).
	SubtreePruned int `json:"subtree_pruned"`
}

// add adds o's tallies to c's.
func (c *Counts) add(o Counts) {
	c.Evaluated += o.Evaluated
	c.Feasible += o.Feasible
	c.PreScreened += o.PreScreened
	c.CacheHits += o.CacheHits
	c.SubtreePruned += o.SubtreePruned
}

// AddCounts flushes one batch of counts into p and any mirror. Every engine
// flushes through it, so the atomic discipline stays in one place.
func (p *Progress) AddCounts(c Counts) {
	p.evaluated.Add(int64(c.Evaluated))
	p.feasible.Add(int64(c.Feasible))
	p.prescreened.Add(int64(c.PreScreened))
	p.cacheHits.Add(int64(c.CacheHits))
	p.subtreePruned.Add(int64(c.SubtreePruned))
	if m := p.mirror.Load(); m != nil {
		m.AddCounts(c)
	}
}

// storeHit counts one search served whole from a result store, and
// propagates it to any mirror.
func (p *Progress) storeHit() {
	p.storeHits.Add(1)
	if m := p.mirror.Load(); m != nil {
		m.storeHit()
	}
}

// AddTotal grows the expected-strategy total (used for ETA). Searches add
// their own space size to the Progress they flush into.
func (p *Progress) AddTotal(n int64) {
	p.total.Add(n)
	if m := p.mirror.Load(); m != nil {
		m.AddTotal(n)
	}
}

// Snapshot captures the counters at one instant and derives throughput and
// an ETA. It is safe to call concurrently with the search.
func (p *Progress) Snapshot() ProgressSnapshot {
	s := ProgressSnapshot{
		Evaluated:     p.evaluated.Load(),
		Feasible:      p.feasible.Load(),
		PreScreened:   p.prescreened.Load(),
		CacheHits:     p.cacheHits.Load(),
		SubtreePruned: p.subtreePruned.Load(),
		StoreHits:     p.storeHits.Load(),
		Total:         p.total.Load(),
	}
	if start := p.startNano.Load(); start != 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - start)
	}
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.Rate = float64(s.Evaluated) / secs
	}
	if s.Total > s.Evaluated && s.Rate > 0 {
		s.ETA = time.Duration(float64(s.Total-s.Evaluated) / s.Rate * float64(time.Second))
	}
	return s
}

// ProgressSnapshot is one observation of a running search.
type ProgressSnapshot struct {
	// Evaluated, Feasible, PreScreened, CacheHits and SubtreePruned are the
	// search's Counts, live. Pruned subtrees are counted in closed form, so
	// a progress line covers the full space, not just the leaves that were
	// generated.
	Evaluated     int64
	Feasible      int64
	PreScreened   int64
	CacheHits     int64
	SubtreePruned int64
	// StoreHits counts whole searches served from a persistent result store
	// (Options.Cache) without evaluating anything: the served verdict's own
	// counters live in the returned Result, not here.
	StoreHits int64
	// Total is the expected number of strategies, when known (see
	// Progress.AddTotal); 0 when unknown.
	Total int64
	// Elapsed is the wall-clock time since the first attached search began.
	Elapsed time.Duration
	// Rate is the aggregate throughput in strategies per second.
	Rate float64
	// ETA estimates the remaining time from Rate and Total; 0 when Total is
	// unknown or already reached.
	ETA time.Duration
}

// String renders a one-line status suitable for a stderr ticker, e.g.
//
//	evaluated 1234567/10957376 (11.3%), 456789 feasible, 250k strategies/s, ETA 39s
func (s ProgressSnapshot) String() string {
	out := fmt.Sprintf("evaluated %d", s.Evaluated)
	if s.Total > 0 {
		out += fmt.Sprintf("/%d (%.1f%%)", s.Total, 100*float64(s.Evaluated)/float64(s.Total))
	}
	out += fmt.Sprintf(", %d feasible", s.Feasible)
	if s.PreScreened > 0 {
		out += fmt.Sprintf(", %d pre-screened", s.PreScreened)
	}
	if s.SubtreePruned > 0 {
		out += fmt.Sprintf(", %d subtree-pruned", s.SubtreePruned)
	}
	if s.StoreHits > 0 {
		out += fmt.Sprintf(", %d store hits", s.StoreHits)
	}
	if s.Rate > 0 {
		out += fmt.Sprintf(", %s strategies/s", compactCount(s.Rate))
	}
	if s.ETA > 0 {
		out += fmt.Sprintf(", ETA %v", s.ETA.Round(time.Second))
	}
	return out
}

// compactCount renders a rate the way humans scan tickers: 250k, 1.2M.
func compactCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
