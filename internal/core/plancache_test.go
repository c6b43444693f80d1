package core

import (
	"math/rand"
	"runtime"
	"testing"

	"carac/internal/jit"
	"carac/internal/plancache"
)

// buildRandomGraph returns a graph-reachability program over a random edge
// set — the workload the parallel executor and the unit store are validated
// on.
func buildRandomGraph(t testing.TB, nodes, edges int, seed int64) (*Program, *Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewProgram()
	edge := p.Relation("edge", 2)
	reach := p.Relation("reach", 2)
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	p.MustRule(reach.A(x, y), edge.A(x, y))
	p.MustRule(reach.A(x, y), reach.A(x, z), edge.A(z, y))
	for i := 0; i < edges; i++ {
		edge.MustFact(rng.Intn(nodes), rng.Intn(nodes))
	}
	return p, reach
}

func snapshotRel(r *Relation) map[[2]int32]bool {
	out := make(map[[2]int32]bool, r.Len())
	r.Each(func(t []int32) bool {
		out[[2]int32{t[0], t[1]}] = true
		return true
	})
	return out
}

// TestParallelWorkerPool exercises the bounded pool at several widths on the
// graph-reachability workload (run under -race in CI) and checks the
// sequential fallback agrees.
func TestParallelWorkerPool(t *testing.T) {
	seq, seqReach := buildRandomGraph(t, 40, 120, 99)
	seqRes, err := seq.Run(Options{Indexed: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotRel(seqReach)

	for _, workers := range []int{0, 1, 2, 3, runtime.GOMAXPROCS(0) * 2} {
		p, reach := buildRandomGraph(t, 40, 120, 99)
		res, err := p.Run(Options{Indexed: true, ParallelUnions: true, Workers: workers, FanoutThreshold: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := snapshotRel(reach)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: |reach| = %d, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workers=%d: missing fact %v", workers, k)
			}
		}
		if res.Interp.Derivations != seqRes.Interp.Derivations {
			t.Fatalf("workers=%d: derivations %d != sequential %d", workers, res.Interp.Derivations, seqRes.Interp.Derivations)
		}
		if res.Interp.Iterations != seqRes.Interp.Iterations {
			t.Fatalf("workers=%d: iterations %d != sequential %d", workers, res.Interp.Iterations, seqRes.Interp.Iterations)
		}
	}
}

// TestParallelRaceStress drives the worker pool with many equally heavy
// recursive rules deriving the same head predicate (each over its own edge
// relation, so no rule finishes early), keeping several workers concurrently
// probing the same frozen Derived relation (Contains on the shared sink) for
// whole iterations. CI runs it under -race; the
// larger CSPA benchmark matrix (also under -race in CI) is the primary
// stressor — it reproduced the shared pack-scratch race an earlier Contains
// implementation had.
func TestParallelRaceStress(t *testing.T) {
	build := func() (*Program, *Relation) {
		p := NewProgram()
		reach := p.Relation("reach", 2)
		x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
		rng := rand.New(rand.NewSource(7))
		const n = 300
		for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6"} {
			e := p.Relation(name, 2)
			p.MustRule(reach.A(x, y), e.A(x, y))
			p.MustRule(reach.A(x, y), reach.A(x, z), e.A(z, y))
			p.MustRule(reach.A(x, y), e.A(z, x), reach.A(z, y))
			for i := 0; i < 500; i++ {
				e.MustFact(rng.Intn(n), rng.Intn(n))
			}
		}
		return p, reach
	}
	seq, seqReach := build()
	if _, err := seq.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	par, parReach := build()
	if _, err := par.Run(Options{Indexed: true, ParallelUnions: true, FanoutThreshold: 1}); err != nil {
		t.Fatal(err)
	}
	if seqReach.Len() != parReach.Len() {
		t.Fatalf("parallel stress diverged: %d vs %d facts", parReach.Len(), seqReach.Len())
	}
}

// TestParallelAggregates: per-worker buffering must not disturb grouped
// aggregation results.
func TestParallelAggregates(t *testing.T) {
	build := func() (*Program, *Relation) {
		p := NewProgram()
		edge := p.Relation("edge", 2)
		reach := p.Relation("reach", 2)
		deg := p.Relation("deg", 2)
		x, y, z, n := NewVar("x"), NewVar("y"), NewVar("z"), NewVar("n")
		p.MustRule(reach.A(x, y), edge.A(x, y))
		p.MustRule(reach.A(x, y), reach.A(x, z), edge.A(z, y))
		p.MustAggRule(deg.A(x, n), 1, Count, nil, reach.A(x, y))
		for i := 0; i < 15; i++ {
			edge.MustFact(i, i+1)
		}
		return p, deg
	}
	p1, deg1 := build()
	if _, err := p1.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	p2, deg2 := build()
	if _, err := p2.Run(Options{Indexed: true, ParallelUnions: true, FanoutThreshold: 1}); err != nil {
		t.Fatal(err)
	}
	if deg1.Len() != deg2.Len() {
		t.Fatalf("parallel aggregation diverged: %d vs %d groups", deg1.Len(), deg2.Len())
	}
	s1, s2 := snapshotRel(deg1), snapshotRel(deg2)
	for k := range s1 {
		if !s2[k] {
			t.Fatalf("parallel aggregation missing group %v", k)
		}
	}
}

// TestSharedPlansWarmRerun: repeated Runs of one Program on the shared
// store, and an incremental fact batch between them, derive what a cold
// Program derives. The interpreter caches no plans, so every Run plans each
// subquery execution afresh and reports no plan-cache activity.
func TestSharedPlansWarmRerun(t *testing.T) {
	cold, coldReach := buildRandomGraph(t, 24, 72, 5)
	if _, err := cold.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	want := snapshotRel(coldReach)

	p, reach := buildRandomGraph(t, 24, 72, 5)
	opts := Options{Indexed: true, SharedPlans: true}
	for run := 0; run < 2; run++ {
		res, err := p.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		got := snapshotRel(reach)
		if len(got) != len(want) {
			t.Fatalf("run %d: |reach| = %d, want %d", run, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("run %d: missing fact %v", run, k)
			}
		}
		if res.Interp.PlanBuilds != res.Interp.SPJRuns || res.Plans != (plancache.Stats{}) {
			t.Fatalf("run %d: %d plans for %d subquery runs, plan cache %+v", run, res.Interp.PlanBuilds, res.Interp.SPJRuns, res.Plans)
		}
	}
	// Incremental fact batch: the rewind to the baseline keeps the store.
	edge := p.Relation("edge", 2)
	edge.MustFact(0, 23)
	if _, err := p.Run(opts); err != nil {
		t.Fatal(err)
	}
	cold2, coldReach2 := buildRandomGraph(t, 24, 72, 5)
	cold2.Relation("edge", 2).MustFact(0, 23)
	if _, err := cold2.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	if reach.Len() != coldReach2.Len() {
		t.Fatalf("incremental batch: |reach| = %d, cold %d", reach.Len(), coldReach2.Len())
	}
}

// TestSharedUnitsWarmRerun: with a JIT backend over the shared store, a
// second Run resolves its compiled units from the store instead of
// recompiling — unit reuse (and cross-run unit reuse) is visible in
// Result.Units and recompiles do not grow.
func TestSharedUnitsWarmRerun(t *testing.T) {
	p, tc := buildTC(t, 40)
	opts := Options{
		Indexed:     true,
		SharedPlans: true,
		JIT:         jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ, FreshnessThreshold: 1e18},
	}
	res1, err := p.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 40*41/2 {
		t.Fatalf("|tc| = %d, want %d", tc.Len(), 40*41/2)
	}
	if res1.JIT.Compilations == 0 {
		t.Fatalf("first run compiled nothing: %+v", res1.JIT)
	}
	if res2.JIT.Compilations != 0 {
		t.Fatalf("warm rerun recompiled %d units despite the shared store", res2.JIT.Compilations)
	}
	if res2.Units.Hits == 0 || res2.Units.CrossRunHits == 0 {
		t.Fatalf("warm rerun shows no unit reuse: %+v", res2.Units)
	}
}

// TestUnitBandReturnReuses: under the banded unit store with cross-band
// freshness, re-entering a previously compiled cardinality regime reuses
// the stored unit — unit reuse observed, recompiles no higher than the old
// one-unit-per-op design would produce (one per SPJ here).
func TestUnitBandReturnReuses(t *testing.T) {
	p, _ := buildTC(t, 50)
	opts := Options{
		Indexed: true,
		JIT:     jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ, FreshnessThreshold: 1e18},
	}
	res, err := p.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units.Hits == 0 {
		t.Fatalf("no unit reuse recorded: %+v", res.Units)
	}
	if res.JIT.Compilations > 2 {
		t.Fatalf("band partitioning inflated compilations: %d > 2", res.JIT.Compilations)
	}
}

// TestSharedPlansMixedConfigs: one Program's store serves runs under
// DIFFERENT execution configurations — sequential, parallel, sharded, JIT —
// without poisoning results: unit keys are backend-tagged, so every mixed
// run must still derive the cold baseline's facts.
func TestSharedPlansMixedConfigs(t *testing.T) {
	cold, coldReach := buildRandomGraph(t, 30, 90, 21)
	if _, err := cold.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	want := snapshotRel(coldReach)

	p, reach := buildRandomGraph(t, 30, 90, 21)
	runs := []Options{
		{Indexed: true, SharedPlans: true},
		{Indexed: true, SharedPlans: true, ParallelUnions: true, Workers: 2, FanoutThreshold: 1},
		{Indexed: true, SharedPlans: true, Shards: 4, Workers: 2, FanoutThreshold: 1},
		{Indexed: true, SharedPlans: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}},
	}
	for i, opts := range runs {
		res, err := p.Run(opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if opts.Shards > 1 && res.Interp.MergeTasks == 0 {
			t.Fatalf("run %d: the pool never folded a worker buffer", i)
		}
		got := snapshotRel(reach)
		if len(got) != len(want) {
			t.Fatalf("run %d: |reach| = %d, want %d", i, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("run %d: missing fact %v", i, k)
			}
		}
	}
}
