package resultstore

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
)

// BenchmarkSearchWarmStore measures the repeated-search path the store
// exists for: the exact configuration of BenchmarkExecutionSearch, served
// from a warm store instead of walked. The strategies/s metric counts the
// served verdict's full space per wall-clock second, so the ratio to
// BenchmarkExecutionSearch's metric is the store's effective-throughput
// multiplier; allocs/op is the baselined number (key hash + index lookup +
// defensive slice copies, no I/O).
func BenchmarkSearchWarmStore(b *testing.B) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64)
	opts := search.Options{Enum: execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2}}
	st, err := Open(filepath.Join(b.TempDir(), "store.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	opts.Cache = st
	cold, err := search.Execution(context.Background(), m, sys, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var served int
	for i := 0; i < b.N; i++ {
		res, err := search.Execution(context.Background(), m, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluated != cold.Evaluated {
			b.Fatalf("warm verdict diverged: %d evaluated, want %d", res.Evaluated, cold.Evaluated)
		}
		served += res.Evaluated
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "strategies/s")
}

// storeOpenRows is how many rows BenchmarkStoreOpen's store holds: about
// as many as a daemon-mixed run of the benchmark suite leaves behind.
const storeOpenRows = 700

// BenchmarkStoreOpen measures a restart's replay of a store file: Open of
// storeOpenRows training rows, each the verdict of one small real search
// with a top-2 and the Pareto front, stored under distinct keys. rows/s
// counts rows replayed per wall-clock second; allocs/op is the decoder's
// allocation count for the whole file.
func BenchmarkStoreOpen(b *testing.B) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64)
	opts := search.Options{
		Enum:   execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2},
		TopK:   2,
		Pareto: true,
	}
	res, err := search.Execution(context.Background(), m, sys, opts)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "store.jsonl")
	rows := make([]Row, storeOpenRows)
	for i := range rows {
		rows[i] = NewRow(fmt.Sprintf("%064x", i), m, sys, res)
	}
	writeRows(b, path, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if n := st.Stats().Rows; n != storeOpenRows {
			b.Fatalf("replayed %d rows, want %d", n, storeOpenRows)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(storeOpenRows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
