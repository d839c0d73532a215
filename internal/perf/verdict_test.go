package perf

import (
	"reflect"
	"strings"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// verdictChain is one evaluation chain of the verdict tests: the strategies
// one runner evaluates in order, the last invalid of which fail
// Strategy.Validate.
type verdictChain struct {
	name    string
	m       model.LLM
	sys     system.System
	strats  []execution.Strategy
	invalid int
}

// verdictChains are evaluation chains that between them reach every verdict
// kind and every pre-screen bound: a tight two-tier system (feasible, the
// memory bound, and both capacity overflows past a passing screen), and a
// one-tier system fed strategies that need more processors or an offload
// tier than it has. Both chains end in structurally invalid strategies.
func verdictChains() []verdictChain {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	o := execution.EnumOptions{Procs: 8, Features: execution.FeatureAll, HasMem2: true,
		MaxTP: 8, MaxInterleave: 1, PinBeneficial: true}
	var fits, tooMany []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		fits = append(fits, s)
		return true
	})
	o.Procs = 16
	o.Enumerate(m, func(s execution.Strategy) bool {
		tooMany = append(tooMany, s)
		return len(tooMany) < 500
	})
	invalid := []execution.Strategy{
		{TP: 2, PP: 2, DP: 3, Microbatch: 1, Interleave: 1},                 // DP does not divide the batch
		{TP: 1, PP: 1, DP: 1, Microbatch: 1, Interleave: 2, OneFOneB: true}, // interleave without PP
	}
	cat := func(parts ...[]execution.Strategy) []execution.Strategy {
		var out []execution.Strategy
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	tight := system.A100(8).WithMem1Capacity(24 * units.GiB).WithMem2(system.DDR5(20 * units.GiB))
	return []verdictChain{
		{"screened", m, tight, cat(fits, invalid), len(invalid)},
		{"one-tier", m, system.A100(8), cat(fits, tooMany, invalid), len(invalid)},
	}
}

// TestVerdictKindsCovered drives chains through every verdict kind and holds
// each evaluation path to the same answer on every leaf: RunDeltaInto's error
// text must equal RunDetailed's (TestDeltaEqualsScratch checks this only
// for the kinds its random sequences happen to reach), RunLeaf, reusing
// one Result across the whole chain, must report the same feasibility and
// write exactly RunDetailed's Result, and RunDetailed must match the
// reference evaluator.
func TestVerdictKindsCovered(t *testing.T) {
	// The outcomes a chain can reach: the verdict kinds, with pre-screened
	// split into the bound that rejects.
	outcomes := map[verdictKind]string{
		feasible: "feasible", invalidStrategy: "invalid strategy", preScreened: "memory bound",
		mem1Overflow: "mem1 overflow", mem2Overflow: "mem2 overflow",
	}
	seen := map[string]int{}
	for _, tc := range verdictChains() {
		t.Run(tc.name, func(t *testing.T) {
			runners := make([]*Runner, 4)
			for i := range runners {
				r, err := NewRunner(tc.m, tc.sys)
				if err != nil {
					t.Fatal(err)
				}
				runners[i] = r
			}
			scratch, delta, leaf, kinds := runners[0], runners[1], runners[2], runners[3]
			var dChain, lChain, kChain RunInfo
			var leafRes Result
			for i, st := range tc.strats {
				want, wantInfo, wantErr := scratch.RunDetailed(st)
				got, info, err := runDelta(delta, dChain, st)
				dChain = info
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("leaf %d %v: RunDeltaInto err %v, RunDetailed err %v", i, st, err, wantErr)
				}
				if info.PreScreened != wantInfo.PreScreened || info.CacheHit != wantInfo.CacheHit {
					t.Fatalf("leaf %d %v: RunDeltaInto info %+v, RunDetailed %+v", i, st, info, wantInfo)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("leaf %d %v: RunDeltaInto result differs from RunDetailed", i, st)
				}

				lst := st
				ok := leaf.RunLeaf(&lChain, &lst)
				if ok {
					lChain.Result(&leafRes)
				}
				if ok != (wantErr == nil) || lChain.PreScreened != wantInfo.PreScreened || lChain.CacheHit != wantInfo.CacheHit {
					t.Fatalf("leaf %d %v: RunLeaf = %v with %+v, RunDetailed err %v with %+v",
						i, st, ok, lChain, wantErr, wantInfo)
				}
				if ok && !reflect.DeepEqual(leafRes, want) {
					t.Fatalf("leaf %d %v: RunLeaf result differs from RunDetailed:\n got %+v\nwant %+v", i, st, leafRes, want)
				}
				checkReference(t, "RunDetailed", tc.m, tc.sys, st, want, wantInfo, wantErr)

				kst := st
				v := verdict{}
				if !kinds.step(&kChain, &kst) {
					v = kChain.delta.v
				}
				switch {
				case v.kind != preScreened:
					seen[outcomes[v.kind]]++
				case strings.Contains(v.err().Error(), "procs"):
					seen["too many procs"]++
				case strings.Contains(v.err().Error(), "second memory tier"):
					seen["no second tier"]++
				default:
					seen[outcomes[v.kind]]++
				}
			}
		})
	}
	for _, o := range []string{"feasible", "invalid strategy", "memory bound", "too many procs",
		"no second tier", "mem1 overflow", "mem2 overflow"} {
		if seen[o] == 0 {
			t.Errorf("no leaf was %s (counts %v)", o, seen)
		}
	}
}

// TestRunLeafAllocatesNothing pins the search's per-leaf cost: on a warm
// chain — the chain state and the shared profile memo both populated —
// evaluating a leaf allocates nothing,
// whichever verdict it reaches. Structurally invalid strategies are left
// out: the enumeration never produces them, and their verdict carries the
// error Strategy.Validate built.
func TestRunLeafAllocatesNothing(t *testing.T) {
	for _, tc := range verdictChains() {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			strats := tc.strats[:len(tc.strats)-tc.invalid]
			var chain RunInfo
			var res Result
			var st execution.Strategy
			walk := func() {
				for i := range strats {
					st = strats[i]
					if r.RunLeaf(&chain, &st) {
						chain.Floor()
						chain.Result(&res)
					}
				}
			}
			walk()
			if n := testing.AllocsPerRun(3, walk); n != 0 {
				t.Fatalf("a warm chain of %d leaves allocated %v times per pass, want 0", len(strats), n)
			}
		})
	}
}

// TestRunAllocatesNothing: a warm scratch evaluation of a feasible strategy
// allocates nothing either. Its strategy, evaluation state and verdict stay
// on the caller's frame, which a verdict stored next to the pointer to the
// strategy would defeat (escape analysis does not tell struct fields apart).
func TestRunAllocatesNothing(t *testing.T) {
	tc := verdictChains()[0]
	r, err := NewRunner(tc.m, tc.sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tc.strats {
		if _, err := r.Run(st); err != nil {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = r.Run(st) }); n != 0 {
			t.Fatalf("a warm Run of %v allocated %v times, want 0", st, n)
		}
		return
	}
	t.Fatal("no feasible strategy in the chain")
}
