package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"calculon/internal/perf"
	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/serving"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the global search-worker budget shared by all running jobs
	// (0 = GOMAXPROCS).
	Workers int
	// MaxRunning bounds concurrently running jobs (clamped to [1, Workers]).
	MaxRunning int
	// QueueDepth bounds the accepted-but-waiting jobs; submits past it get
	// 503.
	QueueDepth int
	// Rate and Burst shape the per-client token bucket over /v1 requests;
	// Rate 0 disables limiting.
	Rate  float64
	Burst int
	// MaxWait caps the ?wait long-poll on the result endpoint (default 30s).
	MaxWait time.Duration
	// Store, when non-nil, is the persistent result store every job
	// consults before searching and feeds afterwards (see
	// internal/resultstore): resubmitting a spec the daemon has already
	// answered — even in a previous process — completes from cache without
	// evaluating a single strategy. The daemon owns the store's lifecycle
	// (open before New, close after Drain).
	Store *resultstore.Store
}

// maxBodyBytes bounds a job-spec body; anything bigger is a client error.
const maxBodyBytes = 1 << 20

// Server is the HTTP face of a Manager: routing, rate limiting, JSON
// encoding, and drain status. Handlers are synchronous — status reads are
// lock-free snapshots and the only wait (the result long-poll) selects on
// the request context, so a disconnected poller frees its handler
// immediately and no per-request goroutines exist to leak.
type Server struct {
	man      *Manager
	limiter  *Limiter
	mux      *http.ServeMux
	maxWait  time.Duration
	draining atomic.Bool
}

// New builds a server and starts its manager's runners.
func New(cfg Config) *Server {
	maxWait := cfg.MaxWait
	if maxWait <= 0 {
		maxWait = 30 * time.Second
	}
	s := &Server{
		man:     NewManager(cfg.Workers, cfg.MaxRunning, cfg.QueueDepth),
		limiter: NewLimiter(cfg.Rate, cfg.Burst),
		mux:     http.NewServeMux(),
		maxWait: maxWait,
	}
	s.man.store = cfg.Store
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.limited(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.limited(s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.limited(s.handleStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.limited(s.handleResult))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.limited(s.handleCancel))
	s.mux.HandleFunc("GET /v1/store", s.limited(s.handleStore))
	return s
}

// Handler is the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job machinery (tests and the daemon's drain path).
func (s *Server) Manager() *Manager { return s.man }

// Drain marks the server draining (healthz flips to 503 so load balancers
// eject it) and drains the manager within ctx's deadline. The HTTP listener
// itself is shut down by the caller — net/http owns that lifecycle.
func (s *Server) Drain(ctx context.Context) {
	s.draining.Store(true)
	s.man.Drain(ctx)
}

// limited wraps a handler with the per-client rate limit.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client := r.RemoteAddr
		if host, _, err := net.SplitHostPort(client); err == nil {
			client = host
		}
		if !s.limiter.Allow(client) {
			s.man.Metrics().ratelimited.Add(1)
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.man.Metrics().Expose(w, s.man.FleetSnapshot(), s.man.workers, s.man.slots, s.man.store)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	queued, err := s.man.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, queued)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.man.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.man.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.man.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// ?wait=5s long-polls for completion, bounded by MaxWait and by the
	// request context: a hung-up client frees the handler immediately.
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad wait: %v", err))
			return
		}
		if wait > s.maxWait {
			wait = s.maxWait
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-job.Done():
			case <-t.C:
			case <-r.Context().Done():
				return
			}
		}
	}
	res, state, jobErr, ok := job.Snapshot()
	if !ok {
		// Not finished: answer with the live status so pollers get the
		// counters for free.
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	var out JobResult
	if res != nil {
		out = *res
	}
	out.ID, out.State = job.ID, state
	if jobErr != nil {
		out.Error = jobErr.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

// StoreStatus is the wire form of the persistent result store's state: the
// same counters /metrics exposes, plus the backing file's path, as JSON for
// operators and scripts. Read-only — the endpoint never mutates the store.
type StoreStatus struct {
	// Enabled is false when the daemon runs without a store (-store ""); all
	// other fields are zero in that case.
	Enabled        bool   `json:"enabled"`
	Path           string `json:"path,omitempty"`
	Rows           int    `json:"rows"`
	Loaded         int    `json:"loaded"`
	Stale          int    `json:"stale"`
	RecoveredBytes int    `json:"recovered_bytes"`
	Hits           int64  `json:"hits"`
	Misses         int64  `json:"misses"`
	Appends        int64  `json:"appends"`
	Flushes        int64  `json:"flushes"`
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	store := s.man.store
	if store == nil {
		writeJSON(w, http.StatusOK, StoreStatus{})
		return
	}
	st := store.Stats()
	writeJSON(w, http.StatusOK, StoreStatus{
		Enabled:        true,
		Path:           store.Path(),
		Rows:           st.Rows,
		Loaded:         st.Loaded,
		Stale:          st.Stale,
		RecoveredBytes: st.RecoveredBytes,
		Hits:           st.Hits,
		Misses:         st.Misses,
		Appends:        st.Appends,
		Flushes:        st.Flushes,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.man.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// JobStatus is the wire form of a job's lifecycle and live progress.
type JobStatus struct {
	ID       string         `json:"id"`
	State    State          `json:"state"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Workers  int            `json:"workers,omitempty"`
	Error    string         `json:"error,omitempty"`
	Progress ProgressStatus `json:"progress"`
}

// ProgressStatus is the wire form of a search.ProgressSnapshot.
type ProgressStatus struct {
	Evaluated      int64   `json:"evaluated"`
	Feasible       int64   `json:"feasible"`
	PreScreened    int64   `json:"pre_screened"`
	SubtreePruned  int64   `json:"subtree_pruned"`
	CacheHits      int64   `json:"cache_hits"`
	StoreHits      int64   `json:"store_hits,omitempty"`
	Total          int64   `json:"total,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Rate           float64 `json:"rate,omitempty"`
	ETASeconds     float64 `json:"eta_seconds,omitempty"`
}

func progressStatus(s search.ProgressSnapshot) ProgressStatus {
	return ProgressStatus{
		Evaluated:      s.Evaluated,
		Feasible:       s.Feasible,
		PreScreened:    s.PreScreened,
		SubtreePruned:  s.SubtreePruned,
		CacheHits:      s.CacheHits,
		StoreHits:      s.StoreHits,
		Total:          s.Total,
		ElapsedSeconds: s.Elapsed.Seconds(),
		Rate:           s.Rate,
		ETASeconds:     s.ETA.Seconds(),
	}
}

// JobResult is the wire form of a finished job's search outcome. Training
// jobs fill Best/Top/Pareto; serving jobs fill Serving (the counter fields
// are shared, with Evaluated counting engine configurations there).
type JobResult struct {
	ID            string          `json:"id"`
	State         State           `json:"state"`
	Error         string          `json:"error,omitempty"`
	Evaluated     int             `json:"evaluated"`
	Feasible      int             `json:"feasible"`
	PreScreened   int             `json:"pre_screened"`
	SubtreePruned int             `json:"subtree_pruned"`
	CacheHits     int             `json:"cache_hits"`
	Found         bool            `json:"found"`
	Best          *perf.Result    `json:"best,omitempty"`
	Top           []perf.Result   `json:"top,omitempty"`
	Pareto        []perf.Result   `json:"pareto,omitempty"`
	Serving       *serving.Result `json:"serving,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The status line is gone; nothing useful can be sent. The error is
		// almost always a client hang-up mid-body.
		return
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
