package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"calculon/internal/serving"
)

const (
	// KindServing marks a row whose payload is a serving-search verdict.
	KindServing = "serving"

	// ServingSpaceVersion identifies the semantics behind a stored serving
	// verdict: the engine enumeration order, the deployment tie-break
	// sequence (Seq), the continuous-batching and disaggregation models,
	// and the cost composition. Bump it whenever any of those change in a
	// result-visible way; rows stamped with an older version become stale
	// and are skipped at load time, never served. It versions the serving
	// space independently of StrategySpaceVersion — a training-model change
	// must not evict serving verdicts, nor the reverse.
	ServingSpaceVersion = 1
)

// ServingVerdict is the stored form of a serving.Result, mirrored
// field-for-field with explicit JSON tags for the same reason Verdict is: a
// serving.Result field added without a schema decision fails to round-trip
// in the warm-lookup equivalence test.
type ServingVerdict struct {
	Evaluated   int                  `json:"evaluated"`
	Feasible    int                  `json:"feasible"`
	PreScreened int                  `json:"pre_screened"`
	Frontier    []serving.Deployment `json:"frontier,omitempty"`
	Best        *serving.Deployment  `json:"best,omitempty"`
}

// newServingVerdict captures a finished serving search's result for storage.
func newServingVerdict(res serving.Result) ServingVerdict {
	return ServingVerdict{
		Evaluated:   res.Evaluated,
		Feasible:    res.Feasible,
		PreScreened: res.PreScreened,
		Frontier:    res.Frontier,
		Best:        res.Best,
	}
}

// result reconstructs the serving.Result a fresh search would have
// returned. The frontier is copied so a caller mutating the returned result
// cannot poison the index, and Best is re-anchored to the copied frontier's
// first point — the same aliasing a fresh search produces.
func (v ServingVerdict) result() serving.Result {
	res := serving.Result{
		Evaluated:   v.Evaluated,
		Feasible:    v.Feasible,
		PreScreened: v.PreScreened,
	}
	if v.Frontier != nil {
		res.Frontier = append([]serving.Deployment(nil), v.Frontier...)
	}
	if v.Best != nil {
		if len(res.Frontier) > 0 && *v.Best == res.Frontier[0] {
			res.Best = &res.Frontier[0]
		} else {
			best := *v.Best
			res.Best = &best
		}
	}
	return res
}

// servingKeyPayload is the exact set of inputs that can reach a serving
// search's result: the normalized spec. Scheduling knobs (Workers, Progress,
// callbacks) are proven result-independent by the serving equivalence tests
// and are deliberately absent, for the same sharding reason as keyPayload.
type servingKeyPayload struct {
	Space int          `json:"serving_space_version"`
	Spec  serving.Spec `json:"spec"`
	// Retired: the option that turned off the serving pre-screen is gone.
	// The field stays, always false, so the encoding — and every key
	// already written — is unchanged.
	RetiredScreenSwitch bool `json:"disable_pre_screen"`
}

// ServingKey computes the canonical content hash identifying one serving
// search. Callers must pass the spec as the serving engine normalizes it
// (Spec.Normalize applied) so every spelling of the same search maps to one
// key; serving.Search consults its Cache only after that normalization.
func ServingKey(spec serving.Spec) (string, error) {
	payload := servingKeyPayload{
		Space: ServingSpaceVersion,
		Spec:  spec,
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("resultstore: serving key encoding: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// NewServingRow stamps a fresh envelope around a finished serving search's
// verdict.
func NewServingRow(key string, spec serving.Spec, res serving.Result) Row {
	v := newServingVerdict(res)
	return Row{
		Schema:      SchemaVersion,
		Space:       ServingSpaceVersion,
		Kind:        KindServing,
		Key:         key,
		CreatedUnix: time.Now().Unix(),
		Model:       spec.Model.Name,
		System:      spec.System.Name,
		Procs:       spec.Space.Procs,
		Serving:     &v,
	}
}

// ServingCache adapts a *Store to serving.Cache. The adapter exists because
// Store already implements search.Cache and the two interfaces collide on
// method names; Store.ServingCache hands out the serving view of the same
// file and index.
type ServingCache struct {
	s *Store
}

var _ serving.Cache = ServingCache{}

// ServingCache returns the store's serving.Cache view, backed by the same
// file, index, and counters as the training view.
func (s *Store) ServingCache() ServingCache { return ServingCache{s: s} }

// Lookup implements serving.Cache: it derives the canonical key and serves
// the stored verdict, reconstructed into the exact Result a fresh search
// would return. A key-derivation failure is reported as a miss.
func (c ServingCache) Lookup(spec serving.Spec, _ serving.Options) (serving.Result, bool) {
	key, err := ServingKey(spec)
	if err != nil {
		return serving.Result{}, false
	}
	row, ok := c.s.lookup(KindServing, key)
	if !ok {
		return serving.Result{}, false
	}
	return row.Serving.result(), true
}

// Store implements serving.Cache: it commits a finished serving search's
// verdict under its canonical key. Errors are swallowed by design, exactly
// as on the training path — the cache is an accelerator, and a search that
// computed a correct result must not fail because it could not persist.
func (c ServingCache) Store(spec serving.Spec, _ serving.Options, res serving.Result) {
	key, err := ServingKey(spec)
	if err != nil {
		return
	}
	_ = c.s.Append(NewServingRow(key, spec, res))
}
