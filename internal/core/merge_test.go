// Tests for the semi-naive sink, the merge barrier and the adaptive fan-out
// driver: determinism of the derivation counters across every execution
// strategy, a mechanical pin that the pooled merge and the sequential fast
// path each engage exactly when the statistics say so, a -race stress run
// that hammers the merge barrier through the full engine, and a bound on
// what a warm Run allocates.
package core_test

import (
	"runtime"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
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

// TestMergeDerivationsDeterminism pins that Derivations — counted where the
// merge barrier stages worker buffers in Derived — equals the sequential
// count under every execution strategy and across repeated adaptive runs
// (scheduling must not leak into the counters: dedup is content-based).
func TestMergeDerivationsDeterminism(t *testing.T) {
	seq := runTC(t, core.Options{Indexed: true})
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
	}
}

// TestAdaptiveFanoutEngages is the mechanical acceptance pin for the
// adaptive driver, testable on any machine regardless of core count:
// (a) with a tiny threshold every iteration fans out and the barrier folds
// worker buffers (MergeTasks advance, no sequential iterations); (b) with a
// huge threshold every iteration takes the sequential fast path — no buffer
// folded, zero parallelism tax, and exactly the sequential SPJ schedule.
func TestAdaptiveFanoutEngages(t *testing.T) {
	seq := runTC(t, core.Options{Indexed: true})

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
	seq := runTC(t, core.Options{Indexed: true})
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
	seq := runTC(t, core.Options{Indexed: true})
	for round := 0; round < 3; round++ {
		built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
		// Repeated runs of one Program rewind to the ground baseline and
		// re-partition, stressing mode transitions along with the merges.
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

// TestWarmRunAllocatesLittle bounds what a warm Run of a TC fixpoint
// allocates per derivation. Derived keeps its arena, row table and chains
// across the baseline rewind and is the only duplicate elimination of the
// fixpoint, so what a Run still allocates is δ′'s chain links, given back
// when the deltas converge: about 5 B per derivation. A delta that
// deduplicated through a row table of its own regrew it every Run, at
// about 19 B.
func TestWarmRunAllocatesLittle(t *testing.T) {
	built := workloads.TransitiveClosure(analysis.HandOptimized, 200, 600, 42)
	opts := core.Options{Indexed: true}
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
	perDerivation := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(res.Interp.Derivations)
	if perDerivation > 10 {
		t.Errorf("a warm Run allocates %.1f B per derivation (%d derivations), want at most 10", perDerivation, res.Interp.Derivations)
	}
}
