// Differential test harness: every workload runs under the full engine
// option matrix — {sequential, parallel, sharded} execution × {JIT on/off}
// — and every configuration must derive exactly the result set of the
// sequential baseline. Datalog evaluation is confluent, so ANY divergence (a
// dropped delta bucket, a duplicated merge, a stale compiled unit, a racy
// counter) is
// a bug this harness pins to one configuration.
//
// It lives in package core_test so it can drive the engine through the real
// workload builders (internal/workloads imports core).
package core_test

import (
	"fmt"
	"sort"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

// execMode is the execution-strategy axis of the matrix. A pooled mode
// forces the worker pool, and every cell run under it must show the merge
// barrier folded worker buffers (Stats.MergeTasks > 0), so no cell silently
// degrades to sequential evaluation under the default fan-out threshold.
type execMode struct {
	name   string
	set    func(*core.Options)
	pooled bool
}

var execModes = []execMode{
	{"sequential", func(o *core.Options) { o.Workers = 1 }, false},
	// The default policy on two workers: it pools an iteration only after
	// one that matched 16 rows per δ row.
	{"policy", func(o *core.Options) { o.Workers = 2 }, false},
	// The production fan-out policy at its default threshold: the toy
	// workloads run mostly on the sequential path.
	{"parallel", func(o *core.Options) { o.ParallelUnions = true }, false},
	{"sharded", func(o *core.Options) { o.Shards = 4 }, false},
	// Explicit pool size and threshold 1 so every non-empty iteration fans
	// out: the task fan-out, the buffer fold and — in the ×JIT cells —
	// morsel-parameterized compiled units over the flat δ all engage regardless of the host's core count, also on the one-row deltas
	// of CyclicSupport (a threshold of 2 would run those sequentially).
	// Histograms exercises the incremental maintenance paths under the
	// drift-increment assertion (maintenance never perturbs drift totals).
	{"sharded-pool", func(o *core.Options) {
		o.Shards = 4
		o.Workers = 4
		o.FanoutThreshold = 1
		o.Histograms = true
	}, true},
}

// checkPooled fails a pooled cell whose merge barrier never ran, unless the
// program has no fixpoint loop to run on the pool (Primes).
func checkPooled(t *testing.T, config string, em execMode, res *core.Result) {
	t.Helper()
	if em.pooled && res.Interp.Iterations > 0 && res.Interp.MergeTasks == 0 {
		t.Errorf("%s: pooled cell never folded a worker buffer (MergeTasks = 0)", config)
	}
}

// snapshotAll captures every predicate's derived set as sorted row strings,
// keyed by relation name — the canonical result-set fingerprint two runs are
// compared by.
func snapshotAll(p *core.Program) map[string][]string {
	out := make(map[string][]string)
	for _, pd := range p.Catalog().Preds() {
		rows := make([]string, 0, pd.Derived.Len())
		pd.Derived.Each(func(t []storage.Value) bool {
			rows = append(rows, fmt.Sprint(t))
			return true
		})
		sort.Strings(rows)
		out[pd.Name] = rows
	}
	return out
}

func diffSnapshots(t *testing.T, config string, want, got map[string][]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: relation %s has %d tuples, baseline %d", config, name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: relation %s row %d = %s, baseline %s", config, name, i, g[i], w[i])
				break
			}
		}
	}
}

// driftTotals captures every predicate's monotone drift counter. Counters
// accumulate across Runs of one Program, so configurations are compared by
// per-run increment: after the first (baseline-capturing) run, every rerun
// applies an identical storage mutation sequence — same per-iteration delta
// sets, same clears, same swaps — so the increments must be byte-identical
// across the whole option matrix, the pooled cells included. A divergence
// means an execution mode silently changed the freshness signal the plan
// cache gates on.
func driftTotals(p *core.Program) map[string]uint64 {
	out := make(map[string]uint64)
	for _, pd := range p.Catalog().Preds() {
		out[pd.Name] = pd.DriftCounter()
	}
	return out
}

func diffDriftIncrements(t *testing.T, config string, base, before, after map[string]uint64) {
	t.Helper()
	for name, want := range base {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s: predicate %s drift increment %d, baseline %d", config, name, got, want)
		}
	}
}

// checkDerivations pins the derivation counter to what it counts: the rows a
// Run added to Derived beyond the ground facts — each once, whichever
// executor, pool worker, compiled unit, yield or aggregate found it.
func checkDerivations(t *testing.T, config string, res *core.Result, ground int) {
	t.Helper()
	if got, want := res.Interp.Derivations, int64(res.TotalFacts-ground); got != want {
		t.Errorf("%s: %d derivations, but the run added %d rows to Derived", config, got, want)
	}
}

// TestDifferentialMatrix runs each workload once sequentially (the baseline)
// and then under every other cell of the option matrix, asserting identical
// sorted result sets and derivation counts equal to the rows each Run added.
func TestDifferentialMatrix(t *testing.T) {
	builds := []struct {
		name  string
		build func() *analysis.Built
	}{
		{"Fibonacci", func() *analysis.Built { return workloads.Fibonacci(analysis.HandOptimized, 15) }},
		{"FibonacciUnopt", func() *analysis.Built { return workloads.Fibonacci(analysis.Unoptimized, 12) }},
		{"Ackermann", func() *analysis.Built { return workloads.Ackermann(analysis.HandOptimized, 2, 3) }},
		{"Primes", func() *analysis.Built { return workloads.Primes(analysis.HandOptimized, 60) }},
		{"TransitiveClosure", func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42) }},
		{"TransitiveClosureUnopt", func() *analysis.Built { return workloads.TransitiveClosure(analysis.Unoptimized, 60, 150, 7) }},
	}
	for _, w := range builds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			built := w.build()
			ground := built.P.Catalog().TotalDerived()
			res, err := built.P.Run(core.Options{Indexed: true, Workers: 1})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			checkDerivations(t, "baseline", res, ground)
			baseline := snapshotAll(built.P)
			if n := len(baseline[built.Output.Name()]); n == 0 {
				t.Fatalf("baseline derived no %s tuples — workload too small to differentiate", built.Output.Name())
			}
			// Second sequential run: its drift increment is the rerun
			// fingerprint every matrix cell must reproduce (the first run
			// starts from a never-run Program and is not comparable).
			preBase := driftTotals(built.P)
			res, err = built.P.Run(core.Options{Indexed: true, Workers: 1})
			if err != nil {
				t.Fatalf("baseline rerun: %v", err)
			}
			checkDerivations(t, "sequential-rerun", res, ground)
			baseDrift := driftTotals(built.P)
			for name, before := range preBase {
				baseDrift[name] -= before
			}
			diffSnapshots(t, "sequential-rerun", baseline, snapshotAll(built.P))
			for _, em := range execModes {
				for _, useJIT := range []bool{false, true} {
					opts := core.Options{Indexed: true}
					em.set(&opts)
					if useJIT {
						opts.JIT = jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
					}
					config := fmt.Sprintf("%s/jit=%v", em.name, useJIT)
					before := driftTotals(built.P)
					res, err := built.P.Run(opts)
					if err != nil {
						t.Fatalf("%s: %v", config, err)
					}
					checkDerivations(t, config, res, ground)
					checkPooled(t, config, em, res)
					diffSnapshots(t, config, baseline, snapshotAll(built.P))
					diffDriftIncrements(t, config, baseDrift, before, driftTotals(built.P))
				}
			}
		})
	}
}

// TestShardFanoutEngages pins that Shards > 1 actually multiplies the
// scheduled subquery executions of a single-rule workload (each task reads
// one morsel of δ) instead of silently degrading to rule-granular
// parallelism — while deriving the identical result set from the identical
// matches: the morsels cover δ exactly once. This is the
// mechanical half of the BenchmarkShardedSpeedup acceptance story, testable
// on any machine regardless of core count.
func TestShardFanoutEngages(t *testing.T) {
	seq := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
	rs, err := seq.P.Run(core.Options{Indexed: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
	rh, err := sh.P.Run(core.Options{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rh.Interp.MergeTasks == 0 {
		t.Fatal("sharded run never folded a worker buffer")
	}
	if rh.Interp.SPJRuns <= rs.Interp.SPJRuns {
		t.Fatalf("sharded run did not fan out: %d <= %d SPJ runs", rh.Interp.SPJRuns, rs.Interp.SPJRuns)
	}
	if rh.TotalFacts != rs.TotalFacts {
		t.Fatalf("sharded fan-out changed the result: %d facts vs %d", rh.TotalFacts, rs.TotalFacts)
	}
	if rh.Interp.Matches != rs.Interp.Matches || rh.Interp.Derivations != rs.Interp.Derivations {
		t.Fatalf("sharded fan-out emitted %d matches for %d derivations, sequential %d for %d",
			rh.Interp.Matches, rh.Interp.Derivations, rs.Interp.Matches, rs.Interp.Derivations)
	}
}

// TestDifferentialIncremental re-checks the matrix's parallel and sharded
// cells after an incremental fact batch: facts added between runs rewind the
// catalog to the ground baseline, and the morsels of the next run's δ follow
// its new length.
func TestDifferentialIncremental(t *testing.T) {
	built := workloads.TransitiveClosure(analysis.HandOptimized, 60, 120, 11)
	if _, err := built.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Incremental batch: a fresh hub node fanning out, skewing the morsels
	// that read its rows.
	edge := built.P.Relation("edge", 2)
	for i := 0; i < 25; i++ {
		edge.MustFact(59, i)
	}
	ground := built.P.Catalog().TotalDerived() // the batch rewound Derived to its ground facts
	if _, err := built.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("baseline after batch: %v", err)
	}
	baseline := snapshotAll(built.P)
	lambdaSPJ := jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
	for _, opts := range []core.Options{
		{Indexed: true, ParallelUnions: true},
		{Indexed: true, Shards: 4},
		{Indexed: true, Shards: 8, Workers: 2, FanoutThreshold: 1},
		{Indexed: true, Shards: 3, Workers: 2, FanoutThreshold: 1},
		{Indexed: true, Shards: 4, Workers: 2, FanoutThreshold: 4},
		// Pool × JIT cells: compiled morsel units over a δ skewed by the
		// incremental hub batch.
		{Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1, JIT: lambdaSPJ},
		{Indexed: true, Shards: 8, Workers: 4, FanoutThreshold: 4, JIT: lambdaSPJ},
	} {
		config := fmt.Sprintf("shards=%d/workers=%d/threshold=%d/parallel=%v/jit=%v",
			opts.Shards, opts.Workers, opts.FanoutThreshold, opts.ParallelUnions, opts.JIT.Backend)
		res, err := built.P.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", config, err)
		}
		if opts.Workers > 1 && res.Interp.MergeTasks == 0 {
			t.Errorf("%s: pooled cell never folded a worker buffer (MergeTasks = 0)", config)
		}
		checkDerivations(t, config, res, ground)
		diffSnapshots(t, config, baseline, snapshotAll(built.P))
	}
}

// TestDifferentialWarmRerun is the harness's warm-rerun mode: every
// execution-mode × JIT cell runs TWICE on the same Program with SharedPlans
// on — the second run starts from the Program-lifetime unit store the first
// one populated. Both runs must derive exactly the sequential baseline's
// result set. With the JIT on the second must show cross-run unit hits in
// every configuration, not just the sequential one; with it off nothing
// enters the store, and neither run reports a cross-run hit.
func TestDifferentialWarmRerun(t *testing.T) {
	builds := []struct {
		name  string
		build func() *analysis.Built
	}{
		{"Fibonacci", func() *analysis.Built { return workloads.Fibonacci(analysis.HandOptimized, 15) }},
		{"TransitiveClosure", func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42) }},
	}
	for _, w := range builds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			base := w.build()
			if _, err := base.P.Run(core.Options{Indexed: true}); err != nil {
				t.Fatalf("baseline: %v", err)
			}
			baseline := snapshotAll(base.P)
			for _, em := range execModes {
				for _, useJIT := range []bool{false, true} {
					opts := core.Options{Indexed: true, SharedPlans: true}
					em.set(&opts)
					if useJIT {
						opts.JIT = jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
					}
					config := fmt.Sprintf("%s/jit=%v", em.name, useJIT)
					built := w.build()
					ground := built.P.Catalog().TotalDerived()
					res1, err := built.P.Run(opts)
					if err != nil {
						t.Fatalf("%s run 1: %v", config, err)
					}
					checkDerivations(t, config+"/run1", res1, ground)
					checkPooled(t, config+"/run1", em, res1)
					diffSnapshots(t, config+"/run1", baseline, snapshotAll(built.P))
					res2, err := built.P.Run(opts)
					if err != nil {
						t.Fatalf("%s run 2: %v", config, err)
					}
					checkDerivations(t, config+"/run2", res2, ground)
					checkPooled(t, config+"/run2", em, res2)
					diffSnapshots(t, config+"/run2", baseline, snapshotAll(built.P))
					if res1.Units.CrossRunHits != 0 {
						t.Errorf("%s: first run claims cross-run hits (%+v)", config, res1.Units)
					}
					if hits := res2.Units.CrossRunHits; (hits > 0) != useJIT {
						t.Errorf("%s: warm rerun served %d cross-run unit hits (%+v)", config, hits, res2.Units)
					}
				}
			}
		})
	}
}
