package resultstore

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"calculon/internal/perf"
	"calculon/internal/search"
)

// testRow fabricates a committed row with a distinguishable verdict. The
// verdicts only need to round-trip and compare; the equivalence tests in
// this package cover real search results.
func testRow(key string, evaluated int) Row {
	return Row{
		Schema: SchemaVersion,
		Space:  StrategySpaceVersion,
		Key:    key,
		Model:  "test-model",
		System: "test-system",
		Procs:  8,
		Verdict: &search.Result{
			Counts: search.Counts{Evaluated: evaluated, Feasible: evaluated / 2},
			Best:   perf.Result{SampleRate: float64(evaluated) * 1.5, ProcsUsed: 8},
		},
	}
}

// TestStoreRoundTrip is the basic persistence property: rows appended in one
// process generation are served, verbatim, after a reopen.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{testRow("k1", 100), testRow("k2", 200), testRow("k3", 300)}
	for _, r := range rows {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// The index serves appended rows before any flush.
	if v, ok := st.lookup("", "k2"); !ok || v.Verdict.Evaluated != 200 {
		t.Fatalf("pre-flush lookup k2 = (%+v, %v), want evaluated 200", v, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Rows != 3 || stats.Loaded != 3 || stats.Stale != 0 || stats.RecoveredBytes != 0 {
		t.Fatalf("reopen stats = %+v, want 3 clean rows", stats)
	}
	for _, r := range rows {
		v, ok := st2.lookup("", r.Key)
		if !ok {
			t.Fatalf("row %s lost across reopen", r.Key)
		}
		if !reflect.DeepEqual(v.Verdict, r.Verdict) {
			t.Fatalf("row %s verdict changed across reopen:\ngot  %+v\nwant %+v", r.Key, v.Verdict, r.Verdict)
		}
	}
	if s := st2.Stats(); s.Hits != 3 || s.Misses != 0 {
		t.Fatalf("counter stats = %+v, want 3 hits, 0 misses", s)
	}
}

// TestStoreDuplicateKeysLastWriteWins pins the dedup rule on both serving
// paths: the live index and the load-time replay both keep the latest row
// for a key, matching append order.
func TestStoreDuplicateKeysLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRow("dup", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRow("dup", 2)); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.lookup("", "dup"); !ok || v.Verdict.Evaluated != 2 {
		t.Fatalf("live lookup = (%+v, %v), want the second write", v, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != 1 || s.Loaded != 2 {
		t.Fatalf("reopen stats = %+v, want 2 loaded deduped to 1 row", s)
	}
	if v, ok := st2.lookup("", "dup"); !ok || v.Verdict.Evaluated != 2 {
		t.Fatalf("replayed lookup = (%+v, %v), want the second write", v, ok)
	}
}

// TestStoreBatching pins the commit policy: appends buffer until the batch
// fills, a full batch flushes (write + fsync), and Flush/Close force the
// tail out.
func TestStoreBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st.batch = 3
	for i, key := range []string{"a", "b"} {
		if err := st.Append(testRow(key, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := fileLines(t, path); n != 0 {
		t.Fatalf("%d lines on disk before the batch filled, want 0", n)
	}
	if s := st.Stats(); s.Flushes != 0 || s.Appends != 2 {
		t.Fatalf("stats before batch fills = %+v", s)
	}
	if err := st.Append(testRow("c", 3)); err != nil {
		t.Fatal(err)
	}
	if n := fileLines(t, path); n != 3 {
		t.Fatalf("%d lines on disk after the batch filled, want 3", n)
	}
	if s := st.Stats(); s.Flushes != 1 {
		t.Fatalf("flushes = %d after one full batch, want 1", s.Flushes)
	}
	if err := st.Append(testRow("d", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := fileLines(t, path); n != 4 {
		t.Fatalf("%d lines on disk after Flush, want 4", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed stores refuse further work.
	if err := st.Append(testRow("e", 5)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := st.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

// TestStoreCrashTruncation simulates the crash the batched-fsync design
// permits: the final line of the final write is cut short. Every committed
// row must survive the reopen, the fragment must be dropped, and the file
// must be usable for appends again.
func TestStoreCrashTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	writeRows(t, path, []Row{testRow("k1", 1), testRow("k2", 2), testRow("k3", 3)})

	// Cut the file mid-way through the final row (newline included).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	cut := len(data) - len(lines[len(lines)-1])/2
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}

	st, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after simulated crash: %v", err)
	}
	stats := st.Stats()
	if stats.Rows != 2 || stats.RecoveredBytes == 0 {
		t.Fatalf("post-crash stats = %+v, want 2 surviving rows and recovered bytes", stats)
	}
	if _, ok := st.lookup("", "k3"); ok {
		t.Fatal("truncated row k3 served after recovery")
	}
	// The store stays writable after recovery and the re-appended row lands
	// on a clean line boundary.
	if err := st.Append(testRow("k3", 33)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != 3 || s.RecoveredBytes != 0 {
		t.Fatalf("stats after recovery + append + reopen = %+v, want 3 clean rows", s)
	}
	if v, ok := st2.lookup("", "k3"); !ok || v.Verdict.Evaluated != 33 {
		t.Fatalf("re-appended k3 = (%+v, %v)", v, ok)
	}
}

// TestStoreCrashSalvage covers the gentler crash shape: the final row is
// complete but lost its newline (the write stopped between the payload and
// the terminator). The row must be salvaged, not dropped.
func TestStoreCrashSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	writeRows(t, path, []Row{testRow("k1", 1), testRow("k2", 2)})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(data)-1)); err != nil { // drop only the final '\n'
		t.Fatal(err)
	}

	st, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after lost newline: %v", err)
	}
	if s := st.Stats(); s.Rows != 2 || s.RecoveredBytes != 0 {
		t.Fatalf("salvage stats = %+v, want both rows and no dropped bytes", s)
	}
	if _, ok := st.lookup("", "k2"); !ok {
		t.Fatal("salvageable row k2 was dropped")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The salvage rewrote the terminator: a further reopen sees a clean file.
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != 2 || s.RecoveredBytes != 0 {
		t.Fatalf("stats after salvage + reopen = %+v", s)
	}
}

// TestStoreUnknownSchemaRejected pins the loud-failure contract: a
// newline-terminated row with an unknown schema version is indistinguishable
// from corruption or a downgrade, so Open must refuse the whole file rather
// than guess.
func TestStoreUnknownSchemaRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	row := testRow("k1", 1)
	row.Schema = SchemaVersion + 1
	writeRawRows(t, path, row)
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("Open with unknown schema = %v, want loud schema-version error", err)
	}
}

// TestStoreCorruptRowRejected: a committed (newline-terminated) row that
// does not parse is corruption, not a crash artifact, and fails Open.
func TestStoreCorruptRowRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, []byte("{\"not\":\"a row\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "corrupt row") {
		t.Fatalf("Open with corrupt committed row = %v, want corrupt-row error", err)
	}
	if err := os.WriteFile(path, []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-JSON committed line")
	}
}

// TestStoreStaleSpaceVersionSkipped: bumping StrategySpaceVersion is the
// cache-invalidation mechanism — rows from an older space load as stale,
// are never served, and do not fail the file.
func TestStoreStaleSpaceVersionSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	old := testRow("old", 1)
	old.Space = StrategySpaceVersion + 1 // not this binary's strategy space
	writeRawRows(t, path, old, testRow("current", 2))

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.Rows != 1 || stats.Loaded != 2 || stats.Stale != 1 {
		t.Fatalf("stats = %+v, want 1 current row and 1 stale", stats)
	}
	if _, ok := st.lookup("", "old"); ok {
		t.Fatal("stale-space row served")
	}
	if _, ok := st.lookup("", "current"); !ok {
		t.Fatal("current-space row lost")
	}
}

// TestStoreRefusesKeylessRow: a row without a key could never be served and
// would silently rot in the file, so Append refuses it.
func TestStoreRefusesKeylessRow(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(testRow("", 1)); err == nil {
		t.Fatal("Append accepted a keyless row")
	}
}

// TestStoreRefusesUnencodableRow: a row JSON cannot encode (here an
// infinite sample rate) is refused at Append and not indexed, so it cannot
// sit in the pending batch failing every later flush; a good row appended
// after it still reaches the file.
func TestStoreRefusesUnencodableRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := testRow("bad", 1)
	bad.Verdict.Best.SampleRate = math.Inf(1)
	if err := st.Append(bad); err == nil {
		t.Fatal("Append accepted a row with an infinite sample rate")
	}
	if _, ok := st.lookup("", "bad"); ok {
		t.Fatal("a refused row is served")
	}
	if err := st.Append(testRow("good", 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close after a refused row: %v", err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != 1 || s.Loaded != 1 {
		t.Fatalf("reopen stats = %+v, want the one good row", s)
	}
	if v, ok := st2.lookup("", "good"); !ok || v.Verdict.Evaluated != 2 {
		t.Fatalf("good row after reopen = (%+v, %v)", v, ok)
	}
}

// writeRows commits rows through the real store (flush + close), producing
// a file exactly as a clean shutdown leaves it.
func writeRows(t testing.TB, path string, rows []Row) {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeRawRows writes rows straight to disk, bypassing the store's own
// envelope checks — for crafting files the store itself would refuse to
// produce (unknown versions, stale spaces).
func writeRawRows(t *testing.T, path string, rows ...Row) {
	t.Helper()
	var b []byte
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileLines counts the newline-terminated lines currently on disk.
func fileLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}
