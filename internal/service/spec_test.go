package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"calculon/internal/config"
)

// validSpec is a minimal spec that prepare() accepts; the bad-spec cases
// below each break one field of it.
func validSpec() JobSpec {
	return JobSpec{
		Model:  config.ModelRef{Preset: "gpt3-13B", Batch: 8},
		System: config.SystemRef{Preset: "a100-80g", Procs: 8},
	}
}

// TestShippedJobSpecsPrepare keeps every example under configs/jobs/
// submittable: each file must decode into a JobSpec and survive the same
// prepare() the daemon runs at POST /v1/jobs time.
func TestShippedJobSpecsPrepare(t *testing.T) {
	dir := filepath.Join("..", "..", "configs", "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	if len(entries) == 0 {
		t.Fatalf("no example job specs in %s", dir)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Errorf("%s: decode: %v", e.Name(), err)
			continue
		}
		if _, err := spec.prepare(); err != nil {
			t.Errorf("%s: prepare: %v", e.Name(), err)
		}
	}
}

func TestPrepareRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"unknown model preset", func() JobSpec {
			s := validSpec()
			s.Model.Preset = "no-such-model"
			return s
		}()},
		{"unknown system preset", func() JobSpec {
			s := validSpec()
			s.System.Preset = "no-such-system"
			return s
		}()},
		{"negative top_k", func() JobSpec {
			s := validSpec()
			s.Search.TopK = -1
			return s
		}()},
		{"negative max_interleave", func() JobSpec {
			s := validSpec()
			s.Search.MaxInterleave = -3
			return s
		}()},
	}
	for _, tc := range cases {
		if _, err := tc.spec.prepare(); err == nil {
			t.Errorf("%s: prepare accepted a bad spec", tc.name)
		}
	}
}

// TestServingSpecIgnoresRetiredPreScreenSwitch: serving job bodies once
// could carry "disable_pre_screen". The switch is gone, and the lenient
// decoder must keep accepting such bodies, preparing exactly the job the
// same body without the field prepares.
func TestServingSpecIgnoresRetiredPreScreenSwitch(t *testing.T) {
	var plain, old JobSpec
	if err := json.NewDecoder(strings.NewReader(servingSeed)).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	body := strings.Replace(servingSeed, `"space":`, `"disable_pre_screen": true, "space":`, 1)
	if body == servingSeed {
		t.Fatal("seed has no space section to splice the field before")
	}
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&old); err != nil {
		t.Fatalf("decode with disable_pre_screen: %v", err)
	}
	want, err := plain.prepare()
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.prepare()
	if err != nil {
		t.Fatalf("prepare with disable_pre_screen: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disable_pre_screen changed the prepared job:\n got %+v\nwant %+v", got, want)
	}
}
