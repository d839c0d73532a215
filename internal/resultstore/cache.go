package resultstore

import (
	"slices"

	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
)

// Store implements search.Cache, so a *Store plugs directly into
// search.Options.Cache: Execution calls Lookup once per search (after
// normalizing its options) and Store once per finished, uncancelled search.
var _ search.Cache = (*Store)(nil)

// Lookup implements search.Cache: it derives the canonical key and serves
// the stored verdict as the exact Result a fresh evaluation would return.
// The slices are copied, so a caller mutating the result cannot poison the
// index (perf.Result is a flat value type, so an element copy is a deep
// copy). A key-derivation failure is reported as a miss — the search then
// simply evaluates.
func (s *Store) Lookup(m model.LLM, sys system.System, opts search.Options) (search.Result, bool) {
	key, err := Key(m, sys, opts)
	if err != nil {
		return search.Result{}, false
	}
	row, ok := s.lookup("", key)
	if !ok {
		return search.Result{}, false
	}
	res := *row.Verdict
	res.Top, res.Pareto = slices.Clone(res.Top), slices.Clone(res.Pareto)
	return res, true
}

// Store implements search.Cache: it commits a finished search's verdict
// under its canonical key. Errors are swallowed by design — the cache is an
// accelerator, and a search that computed a correct result must not fail
// because the verdict could not be persisted. Rates-carrying results are
// refused defensively; the search layer already bypasses the cache for
// CollectRates runs (their sample order is not run-to-run deterministic).
func (s *Store) Store(m model.LLM, sys system.System, opts search.Options, res search.Result) {
	if res.Rates != nil {
		return
	}
	key, err := Key(m, sys, opts)
	if err != nil {
		return
	}
	// The append error is deliberately dropped (see above); a failed write
	// leaves the in-memory index updated, so the running process still
	// dedups. A row that does not encode is refused and not indexed: the
	// next identical search evaluates again.
	_ = s.Append(NewRow(key, m, sys, res))
}
