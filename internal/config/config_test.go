package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

func TestModelRefPreset(t *testing.T) {
	m, err := (ModelRef{Preset: "gpt3-175B", Batch: 4096}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m.Hidden != 12288 || m.Batch != 4096 {
		t.Fatalf("resolved %+v", m)
	}
}

func TestModelRefInline(t *testing.T) {
	in := model.MustPreset("gpt3-13B")
	m, err := (ModelRef{Inline: &in}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "gpt3-13B" {
		t.Fatalf("resolved %+v", m)
	}
}

func TestModelRefErrors(t *testing.T) {
	in := model.MustPreset("gpt3-13B")
	cases := []ModelRef{
		{},
		{Preset: "nope"},
		{Preset: "gpt3-13B", Inline: &in},
		{Inline: &model.LLM{Hidden: -1, AttnHeads: 1, Seq: 1, Blocks: 1, Batch: 1}},
	}
	for i, r := range cases {
		if _, err := r.Resolve(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSystemRefPreset(t *testing.T) {
	s, err := (SystemRef{Preset: "a100-80g", Procs: 64}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Procs != 64 || s.Name != "a100-80g" {
		t.Fatalf("resolved %+v", s)
	}
}

func TestSystemRefErrors(t *testing.T) {
	in := system.A100(8)
	cases := []SystemRef{
		{},
		{Preset: "a100-80g"}, // missing procs
		{Preset: "nope", Procs: 8},
		{Preset: "a100-80g", Procs: 8, Inline: &in},
		{Inline: &system.System{}},
	}
	for i, r := range cases {
		if _, err := r.Resolve(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSystemRefInlineProcsOverride(t *testing.T) {
	in := system.A100(8)
	s, err := (SystemRef{Inline: &in, Procs: 32}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Procs != 32 {
		t.Fatalf("procs = %d", s.Procs)
	}
}

// save writes v as indented JSON, as the shipped config files are written.
func save(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	sc := Scenario{
		Model:  ModelRef{Preset: "gpt3-175B", Batch: 64},
		System: SystemRef{Preset: "a100-80g", Procs: 64},
		Strategy: execution.Strategy{
			TP: 8, PP: 8, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
			Recompute: execution.RecomputeFull,
		},
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	save(t, path, sc)
	back, err := Load[Scenario](path)
	if err != nil {
		t.Fatal(err)
	}
	m, sys, st, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "gpt3-175B" || sys.Procs != 64 || st.TP != 8 {
		t.Fatalf("resolved %v %v %v", m.Name, sys.Procs, st)
	}
}

func TestScenarioResolveValidatesStrategy(t *testing.T) {
	sc := Scenario{
		Model:    ModelRef{Preset: "gpt3-175B"},
		System:   SystemRef{Preset: "a100-80g", Procs: 64},
		Strategy: execution.Strategy{TP: 1000, PP: 1, DP: 1},
	}
	if _, _, _, err := sc.Resolve(); err == nil {
		t.Fatal("invalid strategy must fail")
	}
}

func TestInlineSystemJSONRoundTrip(t *testing.T) {
	s := system.A100(128)
	path := filepath.Join(t.TempDir(), "system.json")
	save(t, path, s)
	back, err := Load[system.System](path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs != 128 || back.Mem1.Capacity != s.Mem1.Capacity ||
		len(back.Networks) != 2 || back.Networks[0].Bandwidth != s.Networks[0].Bandwidth {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load[Scenario]("/nonexistent/path.json"); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	save(t, bad, "just a string")
	if _, err := Load[Scenario](bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("bad JSON must error with path, got %v", err)
	}
}
