package search

import (
	"calculon/internal/model"
	"calculon/internal/system"
)

// Cache is a store of finished search verdicts consulted by Execution before
// it walks a strategy space and fed by it afterwards. internal/resultstore
// provides the persistent implementation; the interface lives here so the
// search engines need no dependency on the storage layer.
//
// Implementations derive the identity of a search from the result-affecting
// inputs only — the model, the system, and the normalized result-affecting
// options (enumeration bounds, TopK, Pareto). Scheduling knobs (Workers,
// Progress, callbacks) must not reach the identity: results are proven
// independent of them.
//
// Both methods may be called concurrently from many searches sharing one
// cache (the service does this); implementations synchronize internally.
type Cache interface {
	// Lookup returns the stored result of this exact search, if any.
	Lookup(m model.LLM, sys system.System, opts Options) (Result, bool)
	// Store records a finished search's result. Implementations are free to
	// drop writes (a full or read-only store is not an error).
	Store(m model.LLM, sys system.System, opts Options, res Result)
}
