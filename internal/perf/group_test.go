package perf

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestBlockProfileProcsIndependent is the invariant behind RunnerGroup's
// cross-size memo sharing: the per-block profile reads nothing that depends
// on the processor count, so profiles priced at one system size are
// bit-identical at every other. If a size-dependent input ever leaks into
// the profile's pricing, sharing the memo across a §5.2 sweep would
// silently serve wrong timings — this test catches that before the
// equivalence suite does. Each size prices the profiles on a Runner of its
// own, and their terms, memory half and op times, are compared.
func TestBlockProfileProcsIndependent(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sts := profileSample(t, m)
	sizes := []int{8, 64, 1024}
	var runners []*Runner
	for _, n := range sizes {
		r, err := NewRunner(m, system.A100(n))
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	for i := range sts {
		ref, _ := viewTerms(runners[0], new(termMemo), &sts[i], true)
		for j, r := range runners[1:] {
			if got, _ := viewTerms(r, new(termMemo), &sts[i], true); got != ref {
				t.Fatalf("profile for %v differs between %d and %d procs:\n%+v\nvs\n%+v",
					sts[i], sizes[0], sizes[j+1], ref, got)
			}
		}
	}
}

// TestBlockProfileBatchIndependent is the invariant behind RunnerAt's batch
// change: the per-block profile reads the microbatch but never the global
// batch, so profiles priced at one batch are bit-identical at every other,
// and one memo serves a serving search's every batch.
func TestBlockProfileBatchIndependent(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sts := profileSample(t, m)
	sys := system.A100(16)
	ref, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 64, 4096} {
		r, err := NewRunner(m.WithBatch(batch), sys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sts {
			want, _ := viewTerms(ref, new(termMemo), &sts[i], true)
			if got, _ := viewTerms(r, new(termMemo), &sts[i], true); got != want {
				t.Fatalf("profile for %v differs between batch %d and %d:\n%+v\nvs\n%+v",
					sts[i], m.Batch, batch, want, got)
			}
		}
	}
}

// profileSample returns the first 64 strategies of a small seqpar space.
func profileSample(t *testing.T, m model.LLM) []execution.Strategy {
	t.Helper()
	o := execution.EnumOptions{Procs: 16, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var sts []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		sts = append(sts, s)
		return len(sts) < 64
	})
	if len(sts) == 0 {
		t.Fatal("no strategies enumerated")
	}
	return sts
}

// profileTerms is every term of a block profile: its graph's memory half
// and the op times its recompute mode selects.
type profileTerms struct {
	tot                         layers.Totals
	boundaryBytes               units.Bytes
	fwd, bwd, recompute         units.Seconds
	fwdSlack, bwdSlack, rcSlack units.Seconds
}

// computeProfile is the eager reference for a block profile: the layer
// graph built afresh and every op priced in one pass, the straight-line
// loop the memo's lazily timed views are held to.
func computeProfile(m *model.LLM, sys *system.System, st *execution.Strategy) profileTerms {
	sh := shardFor(st)
	ls := layers.Block(*m, sh)
	p := profileTerms{tot: layers.Sum(ls), boundaryBytes: layers.BlockInputBytes(*m, sh)}
	var attnFwd, attnSlack units.Seconds
	for _, l := range ls {
		ft, fs := opTime(sys, l.Engine, l.FLOPs, l.Traffic)
		p.fwd += ft
		p.fwdSlack += fs
		bt, bs := opTime(sys, l.Engine, l.BwdFLOPs, l.BwdTraffic)
		p.bwd += bt
		p.bwdSlack += bs
		if l.AttnGroup {
			attnFwd += ft
			attnSlack += fs
		}
	}
	switch st.Recompute {
	case execution.RecomputeFull:
		p.recompute, p.rcSlack = p.fwd, p.fwdSlack
	case execution.RecomputeAttn:
		p.recompute, p.rcSlack = attnFwd, attnSlack
	}
	return p
}

// viewTerms reads the terms of the Runner's profile of st through the
// memo's view, as the search does — the memory half in place, the op times
// on first read — building a missing graph with its time half when timed.
// It reports whether the read was a cache hit.
func viewTerms(r *Runner, memo *termMemo, st *execution.Strategy, timed bool) (profileTerms, bool) {
	prof, hit := r.profile(memo, st, timed)
	e := eval{m: &r.m, sys: &r.sys, st: st, memo: memo}
	e.loadProfile(prof)
	e.loadTimes(r.times(memo, prof, st))
	return profileTerms{
		tot: *e.tot, boundaryBytes: e.boundaryBytes,
		fwd: e.blockFwd, bwd: e.blockBwd, recompute: e.blockRecompute,
		fwdSlack: e.blockFwdSlack, bwdSlack: e.blockBwdSlack, rcSlack: e.recompSlack,
	}, hit
}

// TestLazyTimesMatchEagerProfile holds the memo's views to the eager
// reference: on random shards of three models, a fresh Runner's profile of
// every recompute mode, read in a random order with the graph built timed or
// untimed, has computeProfile's terms bit for bit, whether its op times were
// priced with the graph or on a later first read.
func TestLazyTimesMatchEagerProfile(t *testing.T) {
	sys := system.A100(64)
	models := []model.LLM{model.MustPreset("gpt3-13B"), model.MustPreset("gpt3-175B"), model.MustPreset("megatron-1T")}
	modes := []execution.RecomputeMode{execution.RecomputeNone, execution.RecomputeAttn, execution.RecomputeFull}
	f := func(mi, tp, mb, switches, order uint8) bool {
		m := models[int(mi)%len(models)]
		r, err := NewRunner(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		st := execution.Strategy{
			TP: int(tp)%m.AttnHeads + 1, Microbatch: int(mb)%8 + 1,
			SeqParallel: switches&1 != 0, TPRedoForSP: switches&2 != 0,
			FusedLayers: switches&4 != 0, Inference: switches&8 != 0,
		}
		memo := new(termMemo)
		for k := range modes {
			st.Recompute = modes[(int(order)+k)%len(modes)]
			timed := switches>>(4+k)&1 != 0
			got, _ := viewTerms(r, memo, &st, timed)
			if want := computeProfile(&m, &sys, &st); got != want {
				t.Logf("%s %v (timed %v):\n got %+v\nwant %+v", m.Name, st, timed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentFirstTouch has goroutines read every profile slot of one
// row at once, each on a chain memo of its own and in an order of its own,
// half building the graphs they miss with their op times and half without:
// each slot reports exactly one miss across them all, and every goroutine
// reads the eager reference's terms, whichever built the graph and
// whichever priced its op times.
func TestConcurrentFirstTouch(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(64)
	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	var sts [profileSlots]execution.Strategy
	for i := range sts {
		st := &sts[i]
		*st = execution.Strategy{TP: 8, Microbatch: 2,
			SeqParallel: i&1 != 0, TPRedoForSP: i&2 != 0, FusedLayers: i&4 != 0, Inference: i&8 != 0,
			Recompute: slotRecompute[i>>4]}
		if slotFor(st) != uint32(i) {
			t.Fatalf("strategy %v packs into slot %d, want %d", *st, slotFor(st), i)
		}
	}
	const goroutines = 8
	var misses [profileSlots]atomic.Int32
	got := make([][profileSlots]profileTerms, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			memo := new(termMemo)
			<-start
			for k := range sts {
				i := (k*7 + g*5) % profileSlots
				terms, hit := viewTerms(r, memo, &sts[i], g%2 == 0)
				if !hit {
					misses[i].Add(1)
				}
				got[g][i] = terms
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range sts {
		if n := misses[i].Load(); n != 1 {
			t.Errorf("slot %d: %d misses across %d goroutines, want exactly 1", i, n, goroutines)
		}
		want := computeProfile(&m, &sys, &sts[i])
		for g := range got {
			if got[g][i] != want {
				t.Fatalf("slot %d, goroutine %d:\n got %+v\nwant %+v", i, g, got[g][i], want)
			}
		}
	}
}

// TestRunnerGroupSharesMemo checks the RunnerGroup contract end to end:
// results served through a group Runner are bit-identical to a standalone
// Runner's, and a profile memoized at one size is a cache hit at the next.
func TestRunnerGroupSharesMemo(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	base := system.A100(16)
	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}

	// Sample strategies from across the whole space, not just the first
	// subtrees — the low-TP ones all die in the pre-screen and would never
	// touch the memo.
	o := execution.EnumOptions{Procs: 16, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var all []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		all = append(all, s)
		return true
	})
	stride := len(all)/48 + 1
	var sts []execution.Strategy
	for i := 0; i < len(all); i += stride {
		sts = append(sts, all[i])
	}

	var feasible *execution.Strategy
	for _, procs := range []int{16, 32} {
		sys := base.WithProcs(procs)
		shared, err := group.RunnerFor(sys)
		if err != nil {
			t.Fatalf("RunnerFor(%d procs): %v", procs, err)
		}
		fresh, err := NewRunner(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			got, gotErr := shared.Run(st)
			want, wantErr := fresh.Run(st)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("procs %d, %v: feasibility diverges: shared %v vs fresh %v",
					procs, st, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("procs %d, %v: result diverges through the shared memo", procs, st)
			}
			if gotErr == nil && feasible == nil {
				s := st
				feasible = &s
			}
		}
	}
	if feasible == nil {
		t.Fatal("no feasible strategy in the sample — the cache-hit probe below would be vacuous")
	}

	// After the first sizes warmed the memo, the very first evaluation of an
	// already-seen strategy at a new size must hit the cache.
	probe, err := group.RunnerFor(base.WithProcs(64))
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := probe.RunDetailed(*feasible)
	if err != nil {
		t.Fatalf("strategy feasible at 16 procs infeasible at 64: %v", err)
	}
	if !info.CacheHit {
		t.Errorf("first evaluation at a new size missed the shared memo: %+v", info)
	}
}

// TestRunnerAtMatchesFreshRunner pins RunnerAt to validating and building
// a Runner from scratch: at every batch and processor count, valid or not,
// it fails with the error NewRunner gives the resized model and system, and
// otherwise its Runner's results and errors are the fresh Runner's. The
// base system's outermost network spans 64 processors, so a count beyond
// it fails validation as a non-positive one does.
func TestRunnerAtMatchesFreshRunner(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	base := system.A100(16)
	base.Networks = append([]system.Network(nil), base.Networks...)
	base.Networks[len(base.Networks)-1].Size = 64
	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}
	o := execution.EnumOptions{Procs: 16, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var sts []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		sts = append(sts, s)
		return true
	})
	for _, c := range []struct{ batch, procs int }{
		{32, 16}, {64, 32}, {8, 64}, {0, 16}, {-4, 0}, {32, 0}, {32, -1}, {32, 128},
	} {
		mc := m
		mc.Batch = c.batch
		fresh, wantErr := NewRunner(mc, base.WithProcs(c.procs))
		shared, gotErr := group.RunnerAt(c.batch, c.procs)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("batch %d, procs %d: RunnerAt error %v, want %v", c.batch, c.procs, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for i := 0; i < len(sts); i += len(sts)/48 + 1 {
			got, gotErr := shared.Run(sts[i])
			want, wantErr := fresh.Run(sts[i])
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d, procs %d, %v: RunnerAt gives %v (%v), a fresh Runner %v (%v)",
					c.batch, c.procs, sts[i], got.BatchTime, gotErr, want.BatchTime, wantErr)
			}
		}
	}
}

// TestRunnerGroupRefusesForeignHardware pins the guard: a group must not hand
// out Runners for systems whose memo-relevant hardware (compute engines,
// first-tier timing) differs from the base, since the shared profiles were
// computed under the base's timing.
func TestRunnerGroupRefusesForeignHardware(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	base := system.A100(16)
	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}

	otherCompute := base
	otherCompute.Compute.MatrixPeak *= 2
	if _, err := group.RunnerFor(otherCompute); err == nil {
		t.Error("RunnerFor accepted a system with different compute engines")
	}

	otherMem := base
	otherMem.Mem1.Bandwidth *= 2
	if _, err := group.RunnerFor(otherMem); err == nil {
		t.Error("RunnerFor accepted a system with different first-tier bandwidth")
	}

	// Size-dependent knobs may vary freely: processor count, first-tier
	// capacity, and the second tier.
	for _, ok := range []system.System{
		base.WithProcs(4096),
		base.WithMem1Capacity(base.Mem1.Capacity / 2),
	} {
		if _, err := group.RunnerFor(ok); err != nil {
			t.Errorf("RunnerFor refused a memo-compatible system: %v", err)
		}
	}
}

// TestRowsOneMissPerProfile pins the profile rows' contract under
// concurrency: goroutines that first-evaluate the same strategies at the
// same time — half on scratch evaluations, half on delta chains — on one
// Runner, and through a RunnerGroup at two sizes, report exactly one
// CacheHit == false per distinct block profile across all of them, however
// they are scheduled, and every result is the reference evaluator's. The
// search counters sum these flags, so this is what keeps CacheHits
// independent of the worker count.
func TestRowsOneMissPerProfile(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	base := system.A100(16)
	o := execution.EnumOptions{Procs: 16, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var all []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		all = append(all, s)
		return true
	})
	stride := len(all)/300 + 1
	var sts []execution.Strategy
	for i := 0; i < len(all); i += stride {
		sts = append(sts, all[i])
	}

	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}
	var grouped []*Runner
	for _, procs := range []int{16, 32} {
		r, err := group.RunnerFor(base.WithProcs(procs))
		if err != nil {
			t.Fatal(err)
		}
		grouped = append(grouped, r)
	}
	single, err := NewRunner(m, base)
	if err != nil {
		t.Fatal(err)
	}

	type profile struct {
		tp, microbatch int
		slot           uint32
	}
	type outcome struct {
		res  Result
		info RunInfo
		err  error
	}
	for _, tc := range []struct {
		name    string
		runners []*Runner
	}{{"runner", []*Runner{single}}, {"group", grouped}} {
		t.Run(tc.name, func(t *testing.T) {
			const goroutines = 8
			outs := make([][]outcome, goroutines)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := tc.runners[g/2%len(tc.runners)]
					out := make([]outcome, len(sts))
					var chain RunInfo
					<-start
					for i, st := range sts {
						o := &out[i]
						if g%2 == 0 {
							o.res, o.info, o.err = r.RunDetailed(st)
						} else {
							o.res, chain, o.err = runDelta(r, chain, st)
							o.info = chain
						}
					}
					outs[g] = out
				}()
			}
			close(start)
			wg.Wait()

			misses := map[profile]int{}
			for g, out := range outs {
				r := tc.runners[g/2%len(tc.runners)]
				for i, o := range out {
					st := sts[i]
					checkReference(t, tc.name, m, r.sys, st, o.res, o.info, o.err)
					if o.info.PreScreened {
						continue // no profile read
					}
					st.Normalize()
					k := profile{st.TP, st.Microbatch, slotFor(&st)}
					if !o.info.CacheHit {
						misses[k]++
					} else if _, ok := misses[k]; !ok {
						misses[k] = 0
					}
				}
			}
			if len(misses) == 0 {
				t.Fatal("no strategy reached the profile memo")
			}
			for k, n := range misses {
				if n != 1 {
					t.Errorf("profile %+v: %d misses across %d goroutines, want exactly 1", k, n, goroutines)
				}
			}
		})
	}
}
