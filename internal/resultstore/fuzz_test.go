package resultstore

import (
	"encoding/json"
	"testing"

	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/system"
)

// FuzzResultStoreDecode hammers the store's untrusted surface: decodeRow is
// what Open feeds every line of a file that may have been truncated, hand-
// edited, or written by a different binary. The property is the usual one
// for loaders here: arbitrary bytes must produce a row or an error, never a
// panic — and an accepted row must satisfy the envelope invariants and
// survive a re-encode round-trip (what Append would later write).
func FuzzResultStoreDecode(f *testing.F) {
	// Seed with a committed row carrying a populated verdict (fabricated, not
	// searched — fuzz worker processes re-run this setup, so it must be
	// cheap). The equivalence tests cover real search results.
	m := model.MustPreset("gpt3-13B").WithBatch(8)
	sys := system.A100(8)
	best := perf.Result{Model: m, System: sys.Name, BatchTime: 12.375, SampleRate: 0.646, MFU: 0.41, ProcsUsed: 8}
	row := NewRow("0123abcd", m, sys, searchResultForSeed(best))
	valid, err := json.Marshal(row)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// …and the failure shapes the loader distinguishes: truncation, wrong
	// versions, missing key, plain garbage.
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"schema":1,"space_version":1,"key":"k","verdict":{"evaluated":3}}`))
	f.Add([]byte(`{"schema":99,"space_version":1,"key":"k","verdict":{}}`))
	f.Add([]byte(`{"schema":1,"space_version":1,"verdict":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"schema":1,"space_version":1,"key":"k","verdict":{"best":{"sample_rate":1e309}}}`))
	// A serving row as stores written before this schema hold it, with an
	// empty training verdict beside its serving one.
	f.Add(mirrorServingRow(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := decodeRow(data)
		if err != nil {
			return
		}
		if row.Schema != SchemaVersion {
			t.Fatalf("decodeRow accepted schema version %d", row.Schema)
		}
		if row.Key == "" {
			t.Fatal("decodeRow accepted a keyless row")
		}
		enc, err := json.Marshal(row)
		if err != nil {
			t.Fatalf("accepted row does not re-encode: %v", err)
		}
		again, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("re-encoded row does not re-decode: %v\nrow: %s", err, enc)
		}
		if again.Key != row.Key || again.Space != row.Space {
			t.Fatalf("row identity changed across a round-trip: %+v vs %+v", again, row)
		}
	})
}

// searchResultForSeed shapes a plausible finished-search result around best.
func searchResultForSeed(best perf.Result) (res search.Result) {
	res.Best = best
	res.Top = []perf.Result{best, best}
	res.Pareto = []perf.Result{best}
	res.Evaluated = 4096
	res.Feasible = 512
	res.PreScreened = 3000
	res.CacheHits = 100
	return res
}
