package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"calculon/internal/model"
	"calculon/internal/serving"
	"calculon/internal/system"
	"calculon/internal/units"
)

// servingSpec is a small but non-trivial serving problem: two mix buckets,
// disaggregation on, a real frontier.
func servingSpec() serving.Spec {
	return serving.Spec{
		Model:  model.MustPreset("gpt3-13B"),
		System: system.A100(16),
		Workload: serving.Workload{
			Mix: []serving.Bucket{
				{PromptLen: 512, GenLen: 128, Weight: 3},
				{PromptLen: 2048, GenLen: 256, Weight: 1},
			},
			SLO: serving.SLO{TTFT: 30, TPOT: 1},
		},
		Space: serving.Space{Procs: 16, MaxBatch: 16, Disaggregate: true},
	}
}

// TestServingWarmLookup is the serving store's equivalence contract: a
// search served from the store must be byte-identical to the fresh
// evaluation that populated it, across a process restart (reopen), and must
// not have evaluated anything.
func TestServingWarmLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := servingSpec()
	opts := serving.Options{Cache: st.ServingCache()}
	cold, err := serving.Search(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Feasible == 0 {
		t.Fatal("seed search found nothing; the warm path would be vacuous")
	}
	if s := st.Stats(); s.Misses != 1 || s.Appends != 1 {
		t.Fatalf("cold-run stats = %+v, want 1 miss and 1 append", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != 1 || s.Stale != 0 {
		t.Fatalf("reopen stats = %+v, want the one serving row", s)
	}
	warm, err := serving.Search(context.Background(), spec, serving.Options{Cache: st2.ServingCache()})
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 1 || s.Appends != 0 {
		t.Fatalf("warm-run stats = %+v, want 1 hit and no append", s)
	}
	a, errA := json.MarshalIndent(cold, "", "  ")
	b, errB := json.MarshalIndent(warm, "", "  ")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("warm result diverges from cold:\n%s\nvs\n%s", a, b)
	}
}

// TestServingSweepWarmEqualsCold extends the store contract to the
// right-sizing sweep, which prices engines once for every budget that
// missed: each budget still reads and writes its own row, so a sweep over a
// reopened store — fully warm, or warm for only some budgets — is
// byte-identical to the cold sweep.
func TestServingSweepWarmEqualsCold(t *testing.T) {
	ctx := context.Background()
	spec := servingSpec()
	sizes := []int{4, 16, 8}
	cold, err := serving.Sweep(ctx, spec, sizes, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(cold, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(path string, sizes []int) ([]serving.SizeResult, Stats) {
		t.Helper()
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := serving.Sweep(ctx, spec, sizes, serving.Options{Workers: 2, Cache: st.ServingCache()})
		if err != nil {
			t.Fatal(err)
		}
		stats := st.Stats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return pts, stats
	}

	full := filepath.Join(t.TempDir(), "full.jsonl")
	if _, s := sweep(full, sizes); s.Misses != 3 || s.Appends != 3 {
		t.Fatalf("cold sweep stats = %+v, want 3 misses and 3 appends", s)
	}
	warm, s := sweep(full, sizes)
	if s.Hits != 3 || s.Appends != 0 {
		t.Fatalf("warm sweep stats = %+v, want 3 hits and no append", s)
	}

	part := filepath.Join(t.TempDir(), "part.jsonl")
	sweep(part, sizes[1:2])
	partly, s := sweep(part, sizes)
	if s.Hits != 1 || s.Misses != 2 || s.Appends != 2 {
		t.Fatalf("partly warm sweep stats = %+v, want 1 hit, 2 misses, 2 appends", s)
	}
	for name, pts := range map[string][]serving.SizeResult{"warm": warm, "partly warm": partly} {
		got, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s sweep diverges from cold:\n%s\nvs\n%s", name, got, want)
		}
	}
}

// TestServingKeySeparatesSearches: result-affecting inputs must move the
// key, and the key of a fixed spec is pinned so that stores already written
// keep hitting. Options never reach it: scheduling knobs are
// result-independent.
func TestServingKeySeparatesSearches(t *testing.T) {
	spec := servingSpec().Normalize()
	base, err := ServingKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "4a1a7d626780b763bee2c4ed03d7176fa4ad7237d115e1b6a33f46f6678843cb"
	if base != golden {
		t.Errorf("serving key changed: %s, want %s; rows already stored would stop hitting", base, golden)
	}
	for name, mutate := range map[string]func(*serving.Spec){
		"slo":        func(s *serving.Spec) { s.Workload.SLO.TPOT = units.Seconds(0.5) },
		"space":      func(s *serving.Spec) { s.Space.MaxBatch = 8 },
		"prefillsys": func(s *serving.Spec) { sys := system.A100(16); s.PrefillSystem = &sys },
	} {
		sp := spec
		mutate(&sp)
		k, err := ServingKey(sp)
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("%s: a result-affecting input did not move the serving key", name)
		}
	}
}

// TestServingRowsCoexistWithTraining: one file holds both kinds; a
// ServingSpaceVersion bump (simulated with a raw row) evicts serving rows
// without touching training rows, and vice versa is covered by the
// kind-aware staleness rule.
func TestServingRowsCoexistWithTraining(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	spec := servingSpec().Normalize()
	key, err := ServingKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := serving.Result{Evaluated: 5, Feasible: 1}
	oldServing := NewServingRow(key+"-old", spec, res)
	oldServing.Space = ServingSpaceVersion + 1
	futureKind := NewServingRow(key+"-future", spec, res)
	futureKind.Kind = "holographic"
	writeRawRows(t, path,
		testRow("train", 10),
		NewServingRow(key, spec, res),
		oldServing,
		futureKind,
	)

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Rows != 2 || s.Loaded != 4 || s.Stale != 2 {
		t.Fatalf("stats = %+v, want train+serving live and old-space+unknown-kind stale", s)
	}
	if _, ok := st.lookup("", "train"); !ok {
		t.Error("training row lost in a mixed-kind file")
	}
	if v, ok := st.lookup(KindServing, key); !ok || v.Serving.Evaluated != 5 {
		t.Errorf("serving row = (%+v, %v), want evaluated 5", v, ok)
	}
	// The two indices do not bleed into each other even on equal keys.
	if _, ok := st.lookup("", key); ok {
		t.Error("serving row served from the training index")
	}
}

// TestServingRowWithoutPayloadRejected pins the row invariant decodeRow and
// Append share: a row missing its own kind's payload is corruption, for
// serving and training rows alike.
func TestServingRowWithoutPayloadRejected(t *testing.T) {
	servingRow := NewServingRow("k", servingSpec().Normalize(), serving.Result{})
	servingRow.Serving = nil
	trainingRow := testRow("k", 1)
	trainingRow.Verdict = nil
	st, err := Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, row := range []Row{servingRow, trainingRow} {
		if _, err := decodeRow(mustMarshal(t, row)); err == nil {
			t.Errorf("decodeRow accepted a %q row without its payload", row.Kind)
		}
		if err := st.Append(row); err == nil {
			t.Errorf("Append accepted a %q row without its payload", row.Kind)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
