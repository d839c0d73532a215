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

// Counts is one batch of counter increments: a work chunk's tallies, a
// subtree dropped whole, or a store hit. Every engine flushes through
// AddCounts, so mirror propagation and the atomic discipline stay in one
// place.
type Counts struct {
	Evaluated     int64
	Feasible      int64
	PreScreened   int64
	CacheHits     int64
	SubtreePruned int64
	StoreHits     int64
}

// AddCounts flushes one batch of counts, and propagates it to any mirror.
func (p *Progress) AddCounts(c Counts) {
	if c.Evaluated != 0 {
		p.evaluated.Add(c.Evaluated)
	}
	if c.Feasible != 0 {
		p.feasible.Add(c.Feasible)
	}
	if c.PreScreened != 0 {
		p.prescreened.Add(c.PreScreened)
	}
	if c.CacheHits != 0 {
		p.cacheHits.Add(c.CacheHits)
	}
	if c.SubtreePruned != 0 {
		p.subtreePruned.Add(c.SubtreePruned)
	}
	if c.StoreHits != 0 {
		p.storeHits.Add(c.StoreHits)
	}
	if m := p.mirror.Load(); m != nil {
		m.AddCounts(c)
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
	// Evaluated and Feasible mirror Result's counters, live.
	Evaluated int64
	Feasible  int64
	// PreScreened and CacheHits mirror the two-phase evaluation counters:
	// strategies rejected by the analytic pre-screen, and evaluations served
	// from the memoized block profiles.
	PreScreened int64
	CacheHits   int64
	// SubtreePruned counts the strategies dropped whole at the (tp,pp,dp)
	// lattice level — accounted in Evaluated and PreScreened in closed form,
	// never enumerated. A progress line therefore covers the full space, not
	// just the leaves that were generated.
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
