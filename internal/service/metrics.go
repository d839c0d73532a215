package service

import (
	"fmt"
	"io"
	"sync/atomic"

	"calculon/internal/resultstore"
	"calculon/internal/search"
)

// Metrics is the daemon's counter set, exposed as text on GET /metrics.
// Every field is bumped by job goroutines and HTTP handlers while the
// metrics handler reads concurrently, so access is sync/atomic only —
// calculonvet's atomiccounter analyzer enforces it, the same contract as
// search.Progress. Strategy-level counters (evaluated, feasible,
// pre-screened, subtree-pruned, cache hits) are not duplicated here: every
// job's Progress mirrors into one fleet-wide search.Progress whose snapshot
// the exposition reads.
//
//calculonvet:counter
type Metrics struct {
	// Totals over the daemon's lifetime.
	submitted   atomic.Int64
	servingJobs atomic.Int64 // subset of submitted that are serving searches
	rejected    atomic.Int64 // queue-full and draining refusals
	ratelimited atomic.Int64 // 429s issued
	done        atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	// Gauges for the two live states.
	queued  atomic.Int64
	running atomic.Int64
}

// write renders one metric line pair (HELP omitted; TYPE kept so scrapers
// classify counters vs gauges).
func write(w io.Writer, name, typ string, v int64) {
	fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, v)
}

// Expose writes the Prometheus-style text exposition: job lifecycle
// counters and gauges, the worker budget and job slots, the fleet-wide
// strategy counters aggregated across every job the daemon has run, and —
// when a persistent result store is attached — the store's dedup-cache
// counters. A slot is free when its runner runs no job.
func (m *Metrics) Expose(w io.Writer, fleet search.ProgressSnapshot, workers, slots int, store *resultstore.Store) {
	running := m.running.Load()
	write(w, "calculond_jobs_submitted_total", "counter", m.submitted.Load())
	write(w, "calculond_jobs_serving_total", "counter", m.servingJobs.Load())
	write(w, "calculond_jobs_rejected_total", "counter", m.rejected.Load())
	write(w, "calculond_requests_ratelimited_total", "counter", m.ratelimited.Load())
	write(w, "calculond_jobs_done_total", "counter", m.done.Load())
	write(w, "calculond_jobs_failed_total", "counter", m.failed.Load())
	write(w, "calculond_jobs_cancelled_total", "counter", m.cancelled.Load())
	write(w, "calculond_jobs_queued", "gauge", m.queued.Load())
	write(w, "calculond_jobs_running", "gauge", running)
	write(w, "calculond_workers_total", "gauge", int64(workers))
	write(w, "calculond_job_slots_total", "gauge", int64(slots))
	write(w, "calculond_job_slots_free", "gauge", int64(slots)-running)
	write(w, "calculond_strategies_evaluated_total", "counter", fleet.Evaluated)
	write(w, "calculond_strategies_feasible_total", "counter", fleet.Feasible)
	write(w, "calculond_strategies_prescreened_total", "counter", fleet.PreScreened)
	write(w, "calculond_strategies_subtree_pruned_total", "counter", fleet.SubtreePruned)
	write(w, "calculond_strategy_cache_hits_total", "counter", fleet.CacheHits)
	write(w, "calculond_searches_from_store_total", "counter", fleet.StoreHits)
	if store != nil {
		st := store.Stats()
		write(w, "calculond_store_rows", "gauge", int64(st.Rows))
		write(w, "calculond_store_hits_total", "counter", st.Hits)
		write(w, "calculond_store_misses_total", "counter", st.Misses)
		write(w, "calculond_store_appends_total", "counter", st.Appends)
		write(w, "calculond_store_flushes_total", "counter", st.Flushes)
	}
}
