// Package resultstore persists search verdicts across processes so that no
// search ever walks the same strategy subtree twice. It is the warm-cache
// layer under the CLI and calculond: an append-only JSONL file of typed rows
// keyed on a canonical content hash of the search's result-affecting inputs,
// with an in-memory dedup index (last write wins), buffered batched commits,
// fsync on flush, and crash-safe recovery that tolerates a truncated final
// line. The split mirrors m-lab/etl's layering: schema.go owns the typed row
// structs, store.go the buffered commit path, and cache.go the dedup lookup
// the search engines consult.
//
// Correctness contract: a served verdict is bit-identical to what a fresh
// evaluation would return — same Best/Top/Pareto numbers, same counters.
// The equivalence tests in this package lock that in; anything that changes
// what a search computes must bump StrategySpaceVersion, which invalidates
// every stored row at load time (stale rows are skipped, not served).
package resultstore

import (
	"fmt"
	"time"

	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
)

const (
	// SchemaVersion is the wire-format version of Row. A file whose rows
	// carry any other value is rejected loudly at Open: an unknown schema is
	// indistinguishable from corruption, and silently dropping it could mask
	// a downgrade serving wrong verdicts.
	SchemaVersion = 1

	// StrategySpaceVersion identifies the semantics behind a stored verdict:
	// the enumeration order of the strategy lattice, the tie-break sequence,
	// and the performance model itself. Bump it whenever any of those change
	// in a result-visible way; rows stamped with an older version become
	// stale and are skipped at load time (cache invalidation), never served.
	// It is part of the canonical key, so old and new rows cannot collide.
	//
	// Version 2: the toggle enumeration inside each (tp,pp,dp) triple became
	// a reflected Gray-code walk (one toggle flips per step, feeding delta
	// evaluation), which renumbers the deterministic tie-break sequence —
	// equal-rate strategies can now resolve to a different winner than
	// version-1 rows recorded.
	StrategySpaceVersion = 2
)

// Row is one committed search verdict: the envelope (schema/space versions,
// kind, canonical key, provenance) plus the verdict payload. Rows are
// append-only; re-running a search appends a fresh row and the loader keeps
// the last one per key.
type Row struct {
	// Schema is the wire-format version; see SchemaVersion.
	Schema int `json:"schema"`
	// Space is the semantic version the verdict was computed under — which
	// versioned space depends on Kind: StrategySpaceVersion for training
	// rows, ServingSpaceVersion for serving rows.
	Space int `json:"space_version"`
	// Kind discriminates the verdict payload: "" is a training search
	// (Verdict), KindServing a serving search (Serving). An unrecognized
	// kind — a row written by a newer binary — loads as stale, not corrupt,
	// so mixed-version fleets can share one store file.
	Kind string `json:"kind,omitempty"`
	// Key is the canonical content hash identifying the search; see Key and
	// ServingKey.
	Key string `json:"key"`
	// CreatedUnix records when the verdict was committed (provenance only —
	// it is not part of the identity and never affects lookups).
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Model, System, and Procs are human-readable provenance for people
	// grepping the JSONL; the authoritative identity is Key.
	Model  string `json:"model,omitempty"`
	System string `json:"system,omitempty"`
	Procs  int    `json:"procs,omitempty"`

	// Verdict carries a training row's payload and Serving a serving
	// row's: the engines' own results, each nil on the other kind's rows.
	Verdict *search.Result  `json:"verdict,omitempty"`
	Serving *serving.Result `json:"serving,omitempty"`
}

// stale reports whether the row's verdict was computed under an outdated
// version of its kind's semantic space — or under a kind this binary does
// not know, which is the same situation seen from the other side of an
// upgrade. Stale rows are counted and skipped at load, never served.
func (r Row) stale() bool {
	switch r.Kind {
	case "":
		return r.Space != StrategySpaceVersion
	case KindServing:
		return r.Space != ServingSpaceVersion
	default:
		return true
	}
}

// check is the row invariant both the loader and Append enforce: a row has
// a key and carries its own kind's payload. The payload of a kind this
// binary does not know is not judged; such rows load as stale.
func (r Row) check() error {
	switch {
	case r.Key == "":
		return fmt.Errorf("row has no key")
	case r.Kind == "" && r.Verdict == nil:
		return fmt.Errorf("training row has no verdict")
	case r.Kind == KindServing && r.Serving == nil:
		return fmt.Errorf("serving row has no serving verdict")
	}
	return nil
}

// NewRow stamps a fresh envelope around a finished search's verdict.
func NewRow(key string, m model.LLM, sys system.System, res search.Result) Row {
	return Row{
		Schema:      SchemaVersion,
		Space:       StrategySpaceVersion,
		Key:         key,
		CreatedUnix: time.Now().Unix(),
		Model:       m.Name,
		System:      sys.Name,
		Procs:       sys.Procs,
		Verdict:     &res,
	}
}
