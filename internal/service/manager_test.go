package service

import "testing"

// TestBudgetPartitionNeverExceedsTotal is the acceptance proof for the
// worker budget: however the daemon is sized, the runners' shares sum to
// exactly the global budget — never past it — every share can actually run
// (≥ 1 worker), and the slot count is clamped to [1, total].
func TestBudgetPartitionNeverExceedsTotal(t *testing.T) {
	for total := 1; total <= 33; total++ {
		for slots := 1; slots <= 9; slots++ {
			shares := workerShares(total, slots)
			if want := min(slots, total); len(shares) != want {
				t.Fatalf("workerShares(%d, %d) cuts %d slots, want %d", total, slots, len(shares), want)
			}
			sum := 0
			for i, w := range shares {
				if w < 1 {
					t.Fatalf("workerShares(%d, %d): slot %d carries %d workers", total, slots, i, w)
				}
				sum += w
			}
			if sum != total {
				t.Fatalf("workerShares(%d, %d): shares sum to %d, want exactly %d", total, slots, sum, total)
			}
		}
	}
	if got := workerShares(4, 0); len(got) != 1 || got[0] != 4 {
		t.Fatalf("workerShares(4, 0) = %v, want one slot of 4", got)
	}
}

// TestBudgetTwoConcurrentJobs pins the two-slot case: the two jobs a
// -workers N -max-running 2 daemon runs at once hold at most N workers in
// aggregate, for every N.
func TestBudgetTwoConcurrentJobs(t *testing.T) {
	for n := 1; n <= 16; n++ {
		agg := 0
		for _, w := range workerShares(n, 2) {
			agg += w
		}
		if agg > n {
			t.Fatalf("workers=%d: two concurrent jobs hold %d workers", n, agg)
		}
	}
}
