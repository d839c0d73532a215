// Package config round-trips the three Calculon specifications — LLM,
// system, execution strategy — through JSON files, mirroring the original
// tool's file-driven interface. A spec may either name a built-in preset
// (optionally overriding the batch size or processor count) or define the
// object inline.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// ModelRef selects an LLM: by preset name with an optional batch override,
// or inline.
type ModelRef struct {
	Preset string     `json:"preset,omitempty"`
	Batch  int        `json:"batch,omitempty"`
	Inline *model.LLM `json:"inline,omitempty"`
}

// Resolve produces the LLM the reference describes.
func (r ModelRef) Resolve() (model.LLM, error) {
	var m model.LLM
	switch {
	case r.Inline != nil && r.Preset != "":
		return m, fmt.Errorf("config: model ref has both preset and inline")
	case r.Inline != nil:
		m = *r.Inline
	case r.Preset != "":
		var err error
		if m, err = model.Preset(r.Preset); err != nil {
			return m, err
		}
	default:
		return m, fmt.Errorf("config: model ref is empty")
	}
	if r.Batch > 0 {
		m = m.WithBatch(r.Batch)
	}
	return m, m.Validate()
}

// SystemRef selects a system: by preset name and processor count, or
// inline.
type SystemRef struct {
	Preset string         `json:"preset,omitempty"`
	Procs  int            `json:"procs,omitempty"`
	Inline *system.System `json:"inline,omitempty"`
}

// Resolve produces the system the reference describes.
func (r SystemRef) Resolve() (system.System, error) {
	var s system.System
	switch {
	case r.Inline != nil && r.Preset != "":
		return s, fmt.Errorf("config: system ref has both preset and inline")
	case r.Inline != nil:
		s = *r.Inline
		if r.Procs > 0 {
			s = s.WithProcs(r.Procs)
		}
	case r.Preset != "":
		if r.Procs <= 0 {
			return s, fmt.Errorf("config: system preset %q needs procs", r.Preset)
		}
		var err error
		if s, err = system.Preset(r.Preset, r.Procs); err != nil {
			return s, err
		}
	default:
		return s, fmt.Errorf("config: system ref is empty")
	}
	return s, s.Validate()
}

// Scenario bundles the three specifications of one analysis.
type Scenario struct {
	Model    ModelRef           `json:"model"`
	System   SystemRef          `json:"system"`
	Strategy execution.Strategy `json:"strategy"`
}

// Resolve materializes and validates all three parts.
func (sc Scenario) Resolve() (model.LLM, system.System, execution.Strategy, error) {
	m, err := sc.Model.Resolve()
	if err != nil {
		return m, system.System{}, sc.Strategy, err
	}
	sys, err := sc.System.Resolve()
	if err != nil {
		return m, sys, sc.Strategy, err
	}
	st := sc.Strategy
	st.Normalize()
	return m, sys, st, st.Validate(&m)
}

// Load reads a JSON file into any of the spec types.
func Load[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("config: %s: %w", path, err)
	}
	return v, nil
}
