package search

import (
	"context"
	"testing"
)

func TestProgressMirrorToAggregates(t *testing.T) {
	var agg Progress
	var a, b Progress
	a.MirrorTo(&agg)
	b.MirrorTo(&agg)
	a.AddCounts(Counts{Evaluated: 10, Feasible: 3, PreScreened: 2})
	b.AddCounts(Counts{Evaluated: 5, CacheHits: 4, SubtreePruned: 1})
	a.AddTotal(100)
	b.AddTotal(50)

	snapA, snapB, snapAgg := a.Snapshot(), b.Snapshot(), agg.Snapshot()
	if snapA.Evaluated != 10 || snapB.Evaluated != 5 {
		t.Fatalf("per-progress counters blurred: a=%d b=%d", snapA.Evaluated, snapB.Evaluated)
	}
	if snapAgg.Evaluated != 15 || snapAgg.Feasible != 3 || snapAgg.PreScreened != 2 ||
		snapAgg.CacheHits != 4 || snapAgg.SubtreePruned != 1 || snapAgg.Total != 150 {
		t.Fatalf("aggregate = %+v", snapAgg)
	}
	if snapAgg.Elapsed <= 0 {
		t.Fatal("MirrorTo did not start the aggregate's clock")
	}

	// Unsubscribing stops the flow without touching accumulated counts.
	a.MirrorTo(nil)
	a.AddCounts(Counts{Evaluated: 7})
	if got := agg.Snapshot().Evaluated; got != 15 {
		t.Fatalf("aggregate moved to %d after unsubscribe", got)
	}
}

// TestProgressMirrorThroughSearches runs two real searches, each with its
// own mirrored Progress, and checks the aggregate equals the sum of the
// results — the fleet-counter contract calculond's /metrics stands on.
func TestProgressMirrorThroughSearches(t *testing.T) {
	var agg Progress
	m, sys := bigSpace()
	opts := Options{
		Enum:    bigOptions().Enum,
		Workers: 4,
	}
	total := 0
	for i := 0; i < 2; i++ {
		var prog Progress
		prog.MirrorTo(&agg)
		o := opts
		o.Progress = &prog
		o.EstimateTotal = true
		res, err := Execution(context.Background(), m, sys, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Snapshot().Evaluated; got != int64(res.Evaluated) {
			t.Fatalf("job progress %d != result %d", got, res.Evaluated)
		}
		total += res.Evaluated
	}
	snap := agg.Snapshot()
	if snap.Evaluated != int64(total) {
		t.Fatalf("aggregate evaluated %d, want %d", snap.Evaluated, total)
	}
	if snap.Total != snap.Evaluated {
		t.Fatalf("aggregate total %d != evaluated %d after both searches finished", snap.Total, snap.Evaluated)
	}
}
