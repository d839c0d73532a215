package search

import (
	"context"
	"errors"
	"testing"
)

// TestRunStorePolicy pins the shell's store policy: a hit is served whole
// and leaves only StoreHits = 1 on the counters; a miss adds its size to
// the total, runs, and stores a clean finish; a failed or cancelled run is
// never stored.
func TestRunStorePolicy(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		hit    bool
		err    error
		stores int
	}{
		{name: "hit", ctx: context.Background(), hit: true},
		{name: "miss", ctx: context.Background(), stores: 1},
		{name: "failed", ctx: context.Background(), err: errors.New("boom")},
		{name: "cancelled", ctx: cancelled},
	} {
		var prog Progress
		stores, runs := 0, 0
		st := Stored[int]{
			Lookup: func() (int, bool) { return 7, tc.hit },
			Store:  func(int) { stores++ },
		}
		res, err := Run(tc.ctx, Watch{Progress: &prog, EstimateTotal: true}, st, func() int { return 100 },
			func(p *Progress) (int, error) {
				runs++
				p.AddCounts(Counts{Evaluated: 100})
				return 42, tc.err
			})
		if stores != tc.stores {
			t.Errorf("%s: stored %d times, want %d", tc.name, stores, tc.stores)
		}
		s := prog.Snapshot()
		if tc.hit {
			if res != 7 || err != nil || runs != 0 {
				t.Errorf("hit: (%d, %v) after %d runs, want the stored 7 and no run", res, err, runs)
			}
			if s.StoreHits != 1 || s.Evaluated != 0 || s.Total != 0 {
				t.Errorf("hit: progress %+v, want 1 store hit and nothing else", s)
			}
			continue
		}
		if res != 42 || !errors.Is(err, tc.err) || runs != 1 {
			t.Errorf("%s: (%d, %v) after %d runs, want the run's own result", tc.name, res, err, runs)
		}
		if s.StoreHits != 0 || s.Evaluated != 100 || s.Total != 100 {
			t.Errorf("%s: progress %+v, want the run's counts and its size as the total", tc.name, s)
		}
	}
}
