// Tests for the semi-naive sink, the merge barrier and the adaptive fan-out
// driver: determinism of the derivation counters across every execution
// strategy, a mechanical pin that the pooled merge and the sequential fast
// path each engage exactly when the statistics say so, a -race stress run
// that hammers the merge barrier through the full engine, and a bound on
// what a warm Run allocates.
package core_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

func runTC(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
	res, err := built.P.Run(opts)
	if err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	return res
}

// derivedOrder returns tc's Derived rows, flattened, in the order the run
// staged them.
func derivedOrder(t *testing.T, p *core.Program) []storage.Value {
	t.Helper()
	tc, ok := p.Catalog().PredByName("tc")
	if !ok {
		t.Fatal("no tc predicate")
	}
	var rows []storage.Value
	tc.Derived.Each(func(row []storage.Value) bool {
		rows = append(rows, row...)
		return true
	})
	return rows
}

// TestMergeDerivationsDeterminism pins that Derivations — counted where the
// merge barrier stages the workers' rows in Derived — equals the sequential
// count under every execution strategy and across repeated adaptive runs
// (scheduling must not leak into the counters: dedup is content-based), and
// that repeated pooled runs of each sharded configuration stage Derived's
// rows in one order: the barrier folds in task order, whichever worker ran
// a task.
func TestMergeDerivationsDeterminism(t *testing.T) {
	seq := runTC(t, core.Options{Indexed: true, Workers: 1})
	configs := []struct {
		name string
		opts core.Options
	}{
		{"parallel", core.Options{Indexed: true, ParallelUnions: true, Workers: 4}},
		{"sharded", core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1}},
		{"sharded8", core.Options{Indexed: true, Shards: 8, Workers: 2, FanoutThreshold: 1}},
		{"adaptive", core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 8}},
		{"adaptive-again", core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 8}},
		{"histograms", core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1, Histograms: true}},
	}
	for _, c := range configs {
		res := runTC(t, c.opts)
		if res.Interp.Derivations != seq.Interp.Derivations {
			t.Errorf("%s: %d derivations, sequential %d", c.name, res.Interp.Derivations, seq.Interp.Derivations)
		}
		if res.TotalFacts != seq.TotalFacts {
			t.Errorf("%s: %d facts, sequential %d", c.name, res.TotalFacts, seq.TotalFacts)
		}
		if res.Interp.Iterations != seq.Interp.Iterations {
			t.Errorf("%s: %d iterations, sequential %d", c.name, res.Interp.Iterations, seq.Interp.Iterations)
		}
		if c.opts.Shards > 1 && res.Interp.MergeTasks == 0 {
			t.Errorf("%s: the pool never folded a worker buffer", c.name)
		}
		if c.opts.Histograms && res.Interp.EstimatedRows == 0 {
			t.Errorf("%s: histograms on but no join-size estimate recorded", c.name)
		}
		if c.opts.Shards <= 1 {
			continue
		}
		built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
		var first []storage.Value
		for run := 0; run < 10; run++ {
			if _, err := built.P.Run(c.opts); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			order := derivedOrder(t, built.P)
			if run == 0 {
				first = order
			} else if !slices.Equal(order, first) {
				t.Errorf("%s: run %d staged Derived in another row order than run 0", c.name, run)
				break
			}
		}
	}
}

// TestAdaptiveFanoutEngages is the mechanical acceptance pin for the
// adaptive driver, testable on any machine regardless of core count:
// (a) with a tiny threshold every iteration fans out and the barrier folds
// worker buffers (MergeTasks advance, no sequential iterations); (b) with a
// huge threshold every iteration takes the sequential fast path — no buffer
// folded, zero parallelism tax, and exactly the sequential SPJ schedule.
func TestAdaptiveFanoutEngages(t *testing.T) {
	seq := runTC(t, core.Options{Indexed: true, Workers: 1})

	fanned := runTC(t, core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1})
	if fanned.Interp.SeqIters != 0 {
		t.Errorf("threshold=1: %d sequential iterations, want 0", fanned.Interp.SeqIters)
	}
	if fanned.Interp.MergeTasks == 0 {
		t.Error("threshold=1: the barrier never folded a worker buffer")
	}
	if fanned.Interp.SPJRuns <= seq.Interp.SPJRuns {
		t.Errorf("threshold=1: fan-out did not engage (%d <= %d SPJ runs)", fanned.Interp.SPJRuns, seq.Interp.SPJRuns)
	}
	if fanned.TotalFacts != seq.TotalFacts {
		t.Errorf("threshold=1: %d facts, sequential %d", fanned.TotalFacts, seq.TotalFacts)
	}

	tail := runTC(t, core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1 << 30})
	if tail.Interp.SeqIters != tail.Interp.Iterations {
		t.Errorf("huge threshold: %d/%d iterations sequential, want all", tail.Interp.SeqIters, tail.Interp.Iterations)
	}
	if tail.Interp.MergeTasks != 0 {
		t.Errorf("huge threshold: %d worker buffers folded, want 0", tail.Interp.MergeTasks)
	}
	if tail.Interp.SPJRuns != seq.Interp.SPJRuns {
		t.Errorf("huge threshold: %d SPJ runs, sequential schedule has %d", tail.Interp.SPJRuns, seq.Interp.SPJRuns)
	}
	if tail.TotalFacts != seq.TotalFacts {
		t.Errorf("huge threshold: %d facts, sequential %d", tail.TotalFacts, seq.TotalFacts)
	}
}

// TestShardedRunTakesSequentialPath: a sharded run with no fan-out option set
// takes the same per-iteration decision as every parallel run, so the
// small-delta tail of TC runs on the sequential path at the default
// threshold — a sharded run used to fan out every iteration, tails included.
func TestShardedRunTakesSequentialPath(t *testing.T) {
	seq := runTC(t, core.Options{Indexed: true, Workers: 1})
	res := runTC(t, core.Options{Indexed: true, Shards: 4, Workers: 4})
	if res.Interp.SeqIters == 0 {
		t.Errorf("no iteration of %d took the sequential path", res.Interp.Iterations)
	}
	if res.TotalFacts != seq.TotalFacts {
		t.Errorf("%d facts, sequential %d", res.TotalFacts, seq.TotalFacts)
	}
}

// TestParallelMergeStress hammers the merge barrier through the full
// engine: many workers, more buckets than workers, and a threshold of 1 so
// every iteration — including one-tuple tails — goes through task fan-out
// and the buffer fold. Run under -race by the CI core job.
func TestParallelMergeStress(t *testing.T) {
	seq := runTC(t, core.Options{Indexed: true, Workers: 1})
	for round := 0; round < 3; round++ {
		built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
		// Repeated runs of one Program rewind to the ground baseline,
		// stressing the loans and the scratch pool along with the merges.
		for rerun := 0; rerun < 2; rerun++ {
			res, err := built.P.Run(core.Options{Indexed: true, Shards: 8, Workers: 8, FanoutThreshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalFacts != seq.TotalFacts {
				t.Fatalf("round %d rerun %d: %d facts, want %d", round, rerun, res.TotalFacts, seq.TotalFacts)
			}
			if res.Interp.Derivations != seq.Interp.Derivations {
				t.Fatalf("round %d rerun %d: %d derivations, want %d", round, rerun, res.Interp.Derivations, seq.Interp.Derivations)
			}
		}
	}
}

// checkWarmAllocs runs built's program once, then bounds what each of three
// warm Runs allocates per derivation. The bounds hold under -race too: the
// scratch pool loses nothing there, and compiled units take their frames
// from the interpreter, not from a sync.Pool the race detector drains.
func checkWarmAllocs(t *testing.T, built *analysis.Built, opts core.Options, bound float64) *core.Result {
	t.Helper()
	res, err := built.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := built.P.Run(opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	perDerivation := perRun / float64(res.Interp.Derivations)
	t.Logf("%.1f B per derivation (%d derivations), %.3f MB a Run", perDerivation, res.Interp.Derivations, perRun/1e6)
	if perDerivation > bound {
		t.Errorf("a warm Run allocates %.1f B per derivation (%d derivations), want at most %.0f", perDerivation, res.Interp.Derivations, bound)
	}
	return res
}

// TestWarmRunAllocatesLittle bounds what a warm Run of a TC fixpoint
// allocates per derivation, warm and after two collections. Derived keeps
// its arena, row table and chains across the baseline rewind and is the only
// duplicate elimination of the fixpoint, and δ borrows Derived's rows instead
// of copying them into a delta arena, so a Run allocates almost nothing even
// once the collections have freed the scratch pool's slabs. On amd64 it
// reads 0.5 B both ways at GOMAXPROCS 1, 2 and 4; while δ′ copied every new
// fact into an arena of its own it read 0.5, 2.4 and 4.3 B warm (a sync.Pool
// per class missed across Ps) and 10.8 B after two collections. A delta that
// deduplicated through a row table of its own regrew it every Run, at about
// 19 B.
func TestWarmRunAllocatesLittle(t *testing.T) {
	built := workloads.TransitiveClosure(analysis.HandOptimized, 200, 600, 42)
	opts := core.Options{Indexed: true}
	res := checkWarmAllocs(t, built, opts, 2)
	runtime.GC()
	runtime.GC() // the scratch pool's slabs are freed by the second
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := built.P.Run(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perDerivation := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Interp.Derivations)
	t.Logf("after two collections: %.1f B per derivation", perDerivation)
	if perDerivation > 2 {
		t.Errorf("a Run after two collections allocates %.1f B per derivation, want at most 2", perDerivation)
	}
}

// TestWarmCSPARunAllocations bounds what a warm Run of CSPA in the
// adversarial atom order — the benchmark's headline program, reordered at
// runtime by the lambda backend — allocates per derivation. A delta links its
// rows into an index only when a plan is about to probe it, into links from
// the scratch pool, so the bytes left are mostly plans and compiled units. On
// amd64 it reads 9.4 B per derivation; it read 13.5 B while the deltas'
// memory was allocated afresh every Run, and 26.2 B while both deltas of
// every predicate grew a chain index on every append.
func TestWarmCSPARunAllocations(t *testing.T) {
	checkWarmAllocs(t, analysis.CSPA(analysis.Unoptimized, datagen.CSPAGraph(300, 7)),
		core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}, 15)
}

// TestWarmShardedRunAllocations bounds what a warm Run allocates per
// derivation on the sharded pool under the lambda backend, every iteration
// fanned out. Workers append their finds to chunked lists whose chunks, like
// the deltas' slabs, come from the scratch pool and go back at every
// barrier, so a warm Run reuses the previous one's; on CSPA, whose rules find
// each new fact about twenty times over, the lists' repeat filter keeps most
// of those repeats, and the chunks they would fill, off the barrier. On
// amd64, 8 shards on 2 workers, TC reads about 2.6 B per derivation and CSPA
// 10.5 B; with a chunk free list per Run they read 8.7–10.9 B and
// 41.7–43.8 B, and 22.6–31.8 B and 72.5–97.4 B while each worker wrote into
// a private relation per predicate. The small pool — CSPA_80 on 4 shards / 4
// workers, whose lists are mostly their first chunk and filter — reads
// 36–50 B (0.04–0.06 MB a Run) at GOMAXPROCS 1, 2 and 4, and read 225–397 B
// (0.27–0.47 MB) with the free list, which every Run built afresh.
func TestWarmShardedRunAllocations(t *testing.T) {
	pooled := func(shards, workers int, jc jit.Config) core.Options {
		return core.Options{Indexed: true, Shards: shards, Workers: workers, FanoutThreshold: 1, JIT: jc}
	}
	unionAll := jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}
	small := pooled(4, 4, lambdaSPJ)
	small.SharedPlans = true
	for _, c := range []struct {
		name  string
		built *analysis.Built
		opts  core.Options
		bound float64
	}{
		{"tc", workloads.TransitiveClosure(analysis.HandOptimized, 200, 600, 42), pooled(8, 2, unionAll), 6},
		{"cspa", analysis.CSPA(analysis.Unoptimized, datagen.CSPAGraph(300, 7)), pooled(8, 2, unionAll), 25},
		{"cspa80_4x4", analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42)), small, 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			if res := checkWarmAllocs(t, c.built, c.opts, c.bound); res.Interp.MergeTasks == 0 {
				t.Fatal("the pool never ran")
			}
		})
	}
}

// TestRunKeepsScratchThroughCollections: the free slabs of the scratch pool
// survive the collections that run inside a Run. Two TC programs of
// tc_large's shape run once each, the second sharded with the collector at
// GOGC=5 — a first Run that grows Derived by tens of MB sets off collections
// back to back — and then one more Run of each is bounded per derivation. On
// amd64, 2 cores, they read 0.04 and 0.21 B. The sharded one read 3.3 B
// (1.4 MB a Run) while two collections with no take or give could free the
// slabs mid-Run, and the next Run took the δ′ arenas of the physical
// layout it then had anew.
func TestRunKeepsScratchThroughCollections(t *testing.T) {
	flat := workloads.TransitiveClosure(analysis.HandOptimized, 700, 2100, 42)
	sharded := workloads.TransitiveClosure(analysis.HandOptimized, 700, 2100, 42)
	flatOpts := core.Options{Indexed: true, Workers: 1}
	shardOpts := core.Options{Indexed: true, Shards: 8, Workers: 2}
	if _, err := flat.P.Run(flatOpts); err != nil {
		t.Fatal(err)
	}
	gc := debug.SetGCPercent(5)
	_, err := sharded.P.Run(shardOpts)
	debug.SetGCPercent(gc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		built *analysis.Built
		opts  core.Options
	}{
		{"flat", flat, flatOpts},
		{"sharded", sharded, shardOpts},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := c.built.P.Run(c.opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		perDerivation := float64(allocated) / float64(res.Interp.Derivations)
		t.Logf("%s: %d KB, %.2f B per derivation (%d derivations)", c.name, allocated>>10, perDerivation, res.Interp.Derivations)
		if perDerivation > 0.5 {
			t.Errorf("%s: the Run after a collection-heavy one allocates %.2f B per derivation, want at most 0.5", c.name, perDerivation)
		}
	}
}
