package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
)

// mirrorRowsFile holds the three rows of the compat searches as the store
// wrote them while its payloads were mirror types of the engines' results:
// a training row, a serving row carrying an empty training "verdict", and an
// infeasible serving row with no "frontier" key.
const mirrorRowsFile = "testdata/mirror-rows.jsonl"

// rowsGoldenFile holds the same three rows as the store writes them now,
// each with the CreatedUnix of its mirrorRowsFile counterpart.
const rowsGoldenFile = "testdata/rows.golden.jsonl"

// compatTraining is the training search of the compat rows.
func compatTraining() (model.LLM, system.System, search.Options) {
	return model.MustPreset("gpt3-13B").WithBatch(8), system.A100(8), search.Options{
		Enum:   execution.EnumOptions{Features: execution.FeatureAll, MaxInterleave: 2},
		TopK:   3,
		Pareto: true,
	}
}

// compatServing returns the two serving searches of the compat rows: one
// with a frontier, and one whose TTFT target nothing meets.
func compatServing() []serving.Spec {
	infeasible := servingSpec()
	infeasible.Workload.SLO.TTFT = 1e-6
	return []serving.Spec{servingSpec(), infeasible}
}

// compatRows runs the compat searches with st as their cache (none when st
// is nil) and returns their results in file order.
func compatRows(t *testing.T, st *Store) (search.Result, []serving.Result) {
	t.Helper()
	ctx := context.Background()
	m, sys, opts := compatTraining()
	var sOpts serving.Options
	if st != nil {
		opts.Cache, sOpts.Cache = st, st.ServingCache()
	}
	train, err := search.Execution(ctx, m, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var served []serving.Result
	for _, spec := range compatServing() {
		res, err := serving.Search(ctx, spec, sOpts)
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, res)
	}
	return train, served
}

// copyStore copies a checked-in store file into a temporary directory, so
// opening it (which may rewrite a salvaged tail) leaves testdata alone.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoreServesMirrorRows: a store file written while rows held mirror
// types opens clean, indexes every row, and serves each one DeepEqual to a
// fresh search, without evaluating or appending anything.
func TestStoreServesMirrorRows(t *testing.T) {
	st, err := Open(copyStore(t, mirrorRowsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Rows != 3 || s.Loaded != 3 || s.Stale != 0 || s.RecoveredBytes != 0 {
		t.Fatalf("open stats = %+v, want 3 live rows", s)
	}
	freshTrain, freshServed := compatRows(t, nil)
	if freshServed[1].Feasible != 0 || freshServed[0].Feasible == 0 {
		t.Fatalf("compat serving searches: feasible %d and %d, want some and none",
			freshServed[0].Feasible, freshServed[1].Feasible)
	}
	warmTrain, warmServed := compatRows(t, st)
	if !reflect.DeepEqual(warmTrain, freshTrain) {
		t.Errorf("stored training verdict differs from a fresh search:\ngot  %+v\nwant %+v", warmTrain, freshTrain)
	}
	for i := range freshServed {
		if !reflect.DeepEqual(warmServed[i], freshServed[i]) {
			t.Errorf("stored serving verdict %d differs from a fresh search:\ngot  %+v\nwant %+v", i, warmServed[i], freshServed[i])
		}
	}
	if s := st.Stats(); s.Hits != 3 || s.Misses != 0 || s.Appends != 0 {
		t.Fatalf("stats after serving = %+v, want 3 hits, no miss, no append", s)
	}
}

// TestStoreRowsGolden pins the bytes the store writes for the compat
// searches. The training row must equal its mirrorRowsFile line byte for
// byte; serving rows drop the empty "verdict" and write an empty frontier as
// "frontier":null. If a change to these bytes is intended, regenerate
// rowsGoldenFile from the rows this test prints.
func TestStoreRowsGolden(t *testing.T) {
	mirror, err := os.ReadFile(mirrorRowsFile)
	if err != nil {
		t.Fatal(err)
	}
	mirrorLines := bytes.SplitAfter(mirror, []byte("\n"))
	var created []int64
	for _, line := range mirrorLines[:3] {
		row, err := decodeRow(line)
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, row.CreatedUnix)
	}

	train, served := compatRows(t, nil)
	m, sys, opts := compatTraining()
	opts.Enum.Procs, opts.Enum.HasMem2 = sys.Procs, sys.Mem2.Present()
	key, err := Key(m, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{NewRow(key, m, sys, train)}
	for i, spec := range compatServing() {
		spec = spec.Normalize()
		key, err := ServingKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, NewServingRow(key, spec, served[i]))
	}
	var got bytes.Buffer
	for i, row := range rows {
		row.CreatedUnix = created[i]
		got.Write(mustMarshal(t, row))
		got.WriteByte('\n')
	}

	if line := bytes.SplitAfter(got.Bytes(), []byte("\n"))[0]; !bytes.Equal(line, mirrorLines[0]) {
		t.Errorf("training row differs from the mirror-era bytes:\ngot  %s\nwant %s", line, mirrorLines[0])
	}
	want, err := os.ReadFile(rowsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("written rows differ from %s:\n%s", rowsGoldenFile, got.Bytes())
	}
}

// TestPayloadFieldNames pins the JSON fields of the two row payloads, the
// fields of embedded structs (search.Counts) in their place, as encoding/json
// flattens them. A field added to search.Result or serving.Result changes
// what stored rows hold: decide whether rows already written can still be
// served (else bump StrategySpaceVersion or ServingSpaceVersion), then
// extend this list.
func TestPayloadFieldNames(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(search.Result{}), []string{
			"evaluated", "feasible", "pre_screened", "cache_hits", "subtree_pruned",
			"best", "top,omitempty", "pareto,omitempty", "-",
		}},
		{reflect.TypeOf(serving.Result{}), []string{
			"evaluated", "feasible", "pre_screened", "frontier", "best,omitempty",
		}},
	} {
		if got := jsonFieldTags(tc.typ); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v JSON fields = %q, want %q", tc.typ, got, tc.want)
		}
	}
}

// jsonFieldTags lists the json tags of typ's fields in order, an untagged
// embedded struct's fields in its place.
func jsonFieldTags(typ reflect.Type) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		if f.Anonymous && tag == "" && f.Type.Kind() == reflect.Struct {
			out = append(out, jsonFieldTags(f.Type)...)
			continue
		}
		out = append(out, tag)
	}
	return out
}

// mirrorServingRow is the feasible serving row of mirrorRowsFile, a fuzz
// seed: the shape a store written before this schema holds.
func mirrorServingRow(f *testing.F) []byte {
	data, err := os.ReadFile(mirrorRowsFile)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	var row Row
	if len(lines) < 2 || json.Unmarshal(lines[1], &row) != nil || row.Kind != KindServing {
		f.Fatalf("%s: line 2 is not a serving row", mirrorRowsFile)
	}
	return lines[1]
}
