package resultstore

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestStoreCachedEqualsFresh is the tentpole proof obligation of the result
// store: over randomized (model, system, options) draws, a verdict served
// from the store — same process or after a reopen from disk — must be
// bit-identical to a fresh evaluation. Pareto fronts, top-K sets, and every
// diagnostic counter included; reflect.DeepEqual, no tolerance.
// The CI race job runs this with -race, exercising concurrent appends.
func TestStoreCachedEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	models := []string{"gpt3-13B", "megatron-22B", "gpt2-1.5B", "chinchilla-70B"}
	features := []execution.FeatureSet{
		execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll,
	}
	procChoices := []int{8, 16, 32}
	batchChoices := []int{8, 16, 32}

	draws := 8
	if testing.Short() {
		draws = 4
	}
	for i := 0; i < draws; i++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).
			WithBatch(batchChoices[rng.Intn(len(batchChoices))])
		sys := system.A100(procChoices[rng.Intn(len(procChoices))])
		switch rng.Intn(3) {
		case 0:
			sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 4)
		case 1:
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
		opts := search.Options{
			Enum: execution.EnumOptions{
				Features:      features[rng.Intn(len(features))],
				MaxTP:         8,
				MaxInterleave: 2,
				PinBeneficial: rng.Intn(2) == 0,
			},
			Workers: 1 + rng.Intn(4),
			TopK:    1 + rng.Intn(8),
			Pareto:  true,
		}

		// The reference: a storeless evaluation.
		fresh, err := search.Execution(context.Background(), m, sys, opts)
		if err != nil {
			t.Fatalf("draw %d: fresh search: %v", i, err)
		}

		// Cold arm: store attached but empty — must evaluate, agree with the
		// reference, and commit exactly one row.
		path := filepath.Join(t.TempDir(), "store.jsonl")
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		cold := opts
		cold.Cache = st
		cold.Workers = 1 + rng.Intn(4)
		coldRes, err := search.Execution(context.Background(), m, sys, cold)
		if err != nil {
			t.Fatalf("draw %d: cold search: %v", i, err)
		}
		if !reflect.DeepEqual(coldRes, fresh) {
			t.Fatalf("draw %d: cold run with an empty store diverges from the storeless reference:\ncold: %+v\nfresh: %+v",
				i, coldRes, fresh)
		}
		if s := st.Stats(); s.Misses != 1 || s.Hits != 0 || s.Appends != 1 {
			t.Fatalf("draw %d: cold-run stats = %+v, want 1 miss, 1 append", i, s)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// Warm arm: reopen from disk (forcing the verdict through the JSONL
		// round-trip), different worker count, progress attached.
		st2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		warm := opts
		warm.Cache = st2
		warm.Workers = 1 + rng.Intn(4)
		var prog search.Progress
		warm.Progress = &prog
		warmRes, err := search.Execution(context.Background(), m, sys, warm)
		if err != nil {
			t.Fatalf("draw %d: warm search: %v", i, err)
		}
		if !reflect.DeepEqual(warmRes, fresh) {
			t.Fatalf("draw %d: stored verdict diverges from fresh evaluation:\nwarm: %+v\nfresh: %+v",
				i, warmRes, fresh)
		}
		// Golden digits spelled out on top of DeepEqual: the float fields
		// round-trip through JSON exactly, so even 1e-9 slack must be unused.
		if d := math.Abs(float64(warmRes.Best.BatchTime - fresh.Best.BatchTime)); d > 1e-9 {
			t.Errorf("draw %d: batch time drifted %g through the store", i, d)
		}
		if d := math.Abs(warmRes.Best.SampleRate - fresh.Best.SampleRate); d > 1e-9 {
			t.Errorf("draw %d: sample rate drifted %g through the store", i, d)
		}
		if warmRes.Evaluated != fresh.Evaluated || warmRes.Feasible != fresh.Feasible ||
			warmRes.PreScreened != fresh.PreScreened || warmRes.CacheHits != fresh.CacheHits ||
			warmRes.SubtreePruned != fresh.SubtreePruned {
			t.Errorf("draw %d: served counters diverge: warm %+v fresh %+v", i, warmRes, fresh)
		}
		snap := prog.Snapshot()
		if snap.StoreHits != 1 || snap.Evaluated != 0 {
			t.Errorf("draw %d: warm progress = %+v, want 1 store hit and nothing evaluated", i, snap)
		}
		if s := st2.Stats(); s.Hits != 1 || s.Misses != 0 || s.Appends != 0 {
			t.Errorf("draw %d: warm-run stats = %+v, want exactly 1 hit and no append", i, s)
		}

		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmSweepSkipsLeafEvaluations is the throughput acceptance test from
// the store's design goal: re-running a cliff-spanning system-size sweep
// against a warm store must skip at least 99% of leaf evaluations — here
// it skips all of them — while returning bit-identical points, proven by
// the Progress counters on both runs.
func TestWarmSweepSkipsLeafEvaluations(t *testing.T) {
	// The -short (race) configuration keeps the cold sweep cheap; the full
	// run uses the bench configuration the scaling studies actually sweep.
	m := model.MustPreset("turing-530B").WithBatch(3072)
	sizes := search.Sizes(16, 128) // spans the fit cliff: nothing fits below 112 procs
	opts := search.Options{Enum: execution.EnumOptions{
		Features:      execution.FeatureAll,
		PinBeneficial: true,
		MaxTP:         32,
		MaxInterleave: 4,
	}}
	if testing.Short() {
		m = model.MustPreset("gpt3-13B").WithBatch(32)
		sizes = search.Sizes(8, 64)
		opts.Enum = execution.EnumOptions{
			Features:      execution.FeatureSeqPar,
			MaxTP:         8,
			MaxInterleave: 2,
			PinBeneficial: true,
		}
	}
	sysAt := func(n int) system.System { return system.A100(n) }

	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := opts
	coldOpts.Cache = st
	var coldProg search.Progress
	coldOpts.Progress = &coldProg
	coldPts, err := search.SystemSize(context.Background(), m, sysAt, sizes, coldOpts)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cold := coldProg.Snapshot()
	if cold.Evaluated == 0 {
		t.Fatal("cold sweep evaluated nothing; the skip ratio below would be vacuous")
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != len(sizes) {
		t.Fatalf("store holds %d rows after a %d-size sweep", s.Rows, len(sizes))
	}
	warmOpts := opts
	warmOpts.Cache = st2
	var warmProg search.Progress
	warmOpts.Progress = &warmProg
	warmPts, err := search.SystemSize(context.Background(), m, sysAt, sizes, warmOpts)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if !reflect.DeepEqual(warmPts, coldPts) {
		t.Fatalf("warm sweep points diverge from cold:\nwarm: %+v\ncold: %+v", warmPts, coldPts)
	}
	warm := warmProg.Snapshot()
	if warm.StoreHits != int64(len(sizes)) {
		t.Errorf("warm sweep store hits = %d, want %d (one per size)", warm.StoreHits, len(sizes))
	}
	// The acceptance bound: ≥99% of leaf evaluations skipped. The store
	// serves whole verdicts, so the warm run evaluates exactly zero.
	if warm.Evaluated*100 > cold.Evaluated {
		t.Errorf("warm sweep evaluated %d of %d leaves (>1%%); store failed its throughput contract",
			warm.Evaluated, cold.Evaluated)
	}
	if warm.Evaluated != 0 {
		t.Errorf("warm sweep evaluated %d leaves, want 0", warm.Evaluated)
	}
	if s := st2.Stats(); s.Hits != int64(len(sizes)) || s.Misses != 0 || s.Appends != 0 {
		t.Errorf("warm sweep stats = %+v, want %d hits and no traffic past the index", s, len(sizes))
	}
}
