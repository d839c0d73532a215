package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
)

// keyPayload is the exact set of inputs that can reach a search's result —
// nothing more. Scheduling knobs (Workers, Progress, callbacks) are proven
// result-independent by the search equivalence tests and are deliberately
// absent: a sweep sharded across machines with different worker counts must
// hit the rows a single machine wrote. Shard coordinates never reach the key
// either — sharded runs bypass the store; only whole merged searches have a
// store identity.
//
// The payload is serialized with encoding/json, which emits struct fields
// in declaration order and sorts map keys, so the encoding — and therefore
// the hash — is deterministic and independent of both the field order of
// the JSON files the inputs were loaded from (they are resolved into
// structs before hashing) and of Go's randomized map iteration. The golden
// tests pin the hashes of the shipped configs so an accidental change to
// this struct, to the input types, or to the encoding fails CI.
type keyPayload struct {
	Space  int                   `json:"space_version"`
	Model  model.LLM             `json:"model"`
	System system.System         `json:"system"`
	Enum   execution.EnumOptions `json:"enum"`
	TopK   int                   `json:"top_k"`
	Pareto bool                  `json:"pareto"`

	// Retired: the search options that turned off the pre-screen, the
	// profile memo and the subtree prune are gone. The fields stay, always
	// false, so the encoding — and every key already written — is unchanged.
	RetiredScreenSwitch bool `json:"disable_pre_screen"`
	RetiredMemoSwitch   bool `json:"disable_memo"`
	RetiredPruneSwitch  bool `json:"disable_subtree_prune"`
}

// Key computes the canonical content hash identifying one search: a SHA-256
// over the deterministic encoding of (strategy-space version, model config,
// system config, enumeration options, result-affecting search options),
// rendered as lowercase hex. Callers must pass the options as the search
// engine normalizes them (Enum.Procs defaulted, Features defaulted,
// HasMem2 derived) so every spelling of the same search maps to one key;
// search.Execution consults its Cache only after that normalization.
func Key(m model.LLM, sys system.System, opts search.Options) (string, error) {
	return hashKey(keyPayload{
		Space:  StrategySpaceVersion,
		Model:  m,
		System: sys,
		Enum:   opts.Enum,
		TopK:   opts.TopK,
		Pareto: opts.Pareto,
	})
}

// hashKey renders a key payload as lowercase-hex SHA-256 over its JSON
// encoding.
func hashKey(payload any) (string, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("resultstore: key encoding: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
