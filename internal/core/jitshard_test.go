// Tests for the morsel-native JIT: with a Controller attached and Shards > 1
// the run must keep the worker pool with its merge barrier (an earlier
// engine silently degraded to a sequential loop), morsel-parameterized
// compiled units must execute the tasks — each reading its row range of the
// flat δ, so the pooled run emits exactly the sequential run's matches — the
// unit cache must survive warm reruns at any Shards count, and all of it
// must hold under -race (the CI core job runs this package with the race
// detector).
package core_test

import (
	"fmt"
	"sort"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

var lambdaSPJ = jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}

func runJITTC(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
	res, err := built.P.Run(opts)
	if err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	return res
}

// sameEvaluation fails unless res evaluated exactly what the sequential
// oracle seq did: the same facts, derivations, iterations and matches. A
// pool task reads a morsel of the flat δ, a view of Derived's newest rows,
// so Old stays exact under the pool and every match is emitted once, as on
// the sequential path.
func sameEvaluation(t *testing.T, name string, res, seq *core.Result) {
	t.Helper()
	got := [4]int64{int64(res.TotalFacts), res.Interp.Derivations, res.Interp.Iterations, res.Interp.Matches}
	want := [4]int64{int64(seq.TotalFacts), seq.Interp.Derivations, seq.Interp.Iterations, seq.Interp.Matches}
	if got != want {
		t.Fatalf("%s: facts, derivations, iterations, matches = %v, sequential %v", name, got, want)
	}
}

// TestShardWiring pins the morsel rule end to end on CSPA, whose recursive
// rules read Old: a warm pooled Run that fans every iteration out into
// eight morsel tasks per rule emits exactly the matches, derivations and
// iterations of a sequential Run, and a sequential Run of the same Program
// afterwards derives the same rows — in the interpreter and with lambda
// units running the pool's tasks. Storage has one layout, so nothing is
// configured in between.
func TestShardWiring(t *testing.T) {
	for name, jc := range map[string]jit.Config{"interp": {}, "lambda": lambdaSPJ} {
		t.Run(name, func(t *testing.T) {
			built := analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42))
			sharded := core.Options{Indexed: true, Shards: 8, Workers: 2, FanoutThreshold: 1, JIT: jc}
			var res *core.Result
			for run := 0; run < 2; run++ {
				r, err := built.P.Run(sharded)
				if err != nil {
					t.Fatal(err)
				}
				res = r
			}
			if res.Interp.MergeTasks == 0 || res.Interp.SeqIters != 0 {
				t.Fatalf("the pooled Run took the sequential path %d times, folded %d lists", res.Interp.SeqIters, res.Interp.MergeTasks)
			}
			cat := built.P.Catalog()
			want := derivedRows(cat)

			flat, err := built.P.Run(core.Options{Indexed: true, Workers: 1, JIT: jc})
			if err != nil {
				t.Fatal(err)
			}
			sameEvaluation(t, name, res, flat)
			if fmt.Sprint(derivedRows(cat)) != fmt.Sprint(want) {
				t.Fatal("the sequential Run derived other rows than the pooled one")
			}
		})
	}
}

// TestNaivePoolRunsWholeRelationWorkOnce: a naive Run's subqueries read Full
// and have no δ atom to split, so only the first of a rule's morsel tasks
// runs them — the other tasks would repeat every match — and the pooled
// Run evaluates exactly what the sequential one does, in the interpreter
// and with lambda units running the pool's tasks.
func TestNaivePoolRunsWholeRelationWorkOnce(t *testing.T) {
	for name, jc := range map[string]jit.Config{"interp": {}, "lambda": lambdaSPJ} {
		seq := runJITTC(t, core.Options{Indexed: true, Naive: true, Workers: 1, JIT: jc})
		res := runJITTC(t, core.Options{Indexed: true, Naive: true, Shards: 8, Workers: 2, FanoutThreshold: 1, JIT: jc})
		if res.Interp.MergeTasks == 0 {
			t.Fatalf("%s: the naive Run never reached the pool", name)
		}
		sameEvaluation(t, name, res, seq)
	}
}

// derivedRows lists every predicate's Derived rows, sorted: the pool's
// barrier folds in task order, not in the sequential loop's.
func derivedRows(cat *storage.Catalog) map[string][]string {
	out := make(map[string][]string)
	for _, pd := range cat.Preds() {
		pd.Derived.Each(func(row []storage.Value) bool {
			out[pd.Name] = append(out[pd.Name], fmt.Sprint(row))
			return true
		})
		sort.Strings(out[pd.Name])
	}
	return out
}

// TestJITShardedReadsMorsels is the acceptance pin: a pooled run with a
// Controller attached reads morsels of the flat δ end to end — the pool
// runs and its barrier folds worker buffers (Stats.MergeTasks > 0), the
// pool's tasks execute compiled units (Stats.Compiled > 0 via ShardUnits,
// Compilations recorded), and the facts, derivations, iteration schedule
// and matches equal the sequential oracle's exactly.
func TestJITShardedReadsMorsels(t *testing.T) {
	seq := runJITTC(t, core.Options{Indexed: true, Workers: 1})
	res := runJITTC(t, core.Options{
		Indexed: true, Shards: 4, Workers: 4,
		FanoutThreshold: 1, // every iteration fans out
		JIT:             lambdaSPJ,
	})
	sameEvaluation(t, "pooled+JIT", res, seq)
	if res.Interp.MergeTasks == 0 {
		t.Fatal("the barrier never folded a worker buffer: the pool did not run")
	}
	if res.JIT.Compilations == 0 {
		t.Fatalf("no task units compiled: %+v", res.JIT)
	}
	if res.Interp.Compiled == 0 {
		t.Fatal("compiled task units never executed — tasks all fell back to interpretation")
	}
	if res.JIT.Failures != 0 {
		t.Fatalf("%d task-unit compile failures", res.JIT.Failures)
	}
}

// TestJITShardedAdaptiveFanout: the adaptive driver's two regimes compose
// with compilation — fanned-out iterations run compiled morsel tasks and
// fold their buffers, tail iterations take the sequential fast path —
// without changing what the run evaluates: facts, derivations, iterations
// and matches equal the sequential oracle's.
func TestJITShardedAdaptiveFanout(t *testing.T) {
	seq := runJITTC(t, core.Options{Indexed: true, Workers: 1})
	res := runJITTC(t, core.Options{
		Indexed: true, Shards: 4, Workers: 4,
		// High enough that this workload's tail iterations dip under it
		// (TC(80,200) tails at ~15 delta tuples), low enough that the early
		// iterations still fan out.
		FanoutThreshold: 64,
		JIT:             lambdaSPJ,
	})
	sameEvaluation(t, "adaptive pooled+JIT", res, seq)
	if res.Interp.MergeTasks == 0 {
		t.Fatal("adaptive sharded+JIT never folded a worker buffer")
	}
	if res.Interp.SeqIters == 0 {
		t.Fatal("adaptive sharded+JIT never took the sequential fast path on the tail")
	}
	if res.Interp.Compiled == 0 {
		t.Fatal("no compiled execution under the adaptive driver")
	}
}

// TestJITDegeneratePoolStillCompiles: a pooled JIT run whose pool
// degenerates to one worker evaluates each rule once, unrestricted and in
// place — but must keep consulting the controller's safe points, so
// rule-granularity compiled units still execute exactly as they do under the
// sequential loop (regression: the in-place path once bypassed Enter), and
// evaluate exactly what it does.
func TestJITDegeneratePoolStillCompiles(t *testing.T) {
	seq := runJITTC(t, core.Options{Indexed: true, Workers: 1})
	res := runJITTC(t, core.Options{
		Indexed: true, Shards: 4, Workers: 1,
		JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionRule},
	})
	sameEvaluation(t, "degenerate pool", res, seq)
	if res.JIT.Compilations == 0 {
		t.Fatalf("degenerate pool compiled nothing: %+v", res.JIT)
	}
	if res.Interp.Compiled == 0 {
		t.Fatal("degenerate pool never executed compiled units — Enter bypassed on the in-place path")
	}
}

// TestJITShardedWarmRerun: task units live in the Program-lifetime store
// under layout-tagged subtree fingerprints, so a warm rerun at the same
// Shards count recompiles 0 units and serves cross-run hits — the same
// guarantee the sequential unit view gives.
func TestJITShardedWarmRerun(t *testing.T) {
	built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
	opts := core.Options{
		Indexed: true, SharedPlans: true, Shards: 4, Workers: 4, FanoutThreshold: 1,
		JIT: lambdaSPJ,
	}
	res1, err := built.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.JIT.Compilations == 0 {
		t.Fatalf("first run compiled nothing: %+v", res1.JIT)
	}
	res2, err := built.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.JIT.Compilations != 0 {
		t.Fatalf("warm rerun recompiled %d units at an unchanged Shards count", res2.JIT.Compilations)
	}
	if res2.Units.CrossRunHits == 0 {
		t.Fatalf("warm rerun served no cross-run unit hits: %+v", res2.Units)
	}
	if res1.Interp.MergeTasks == 0 || res2.Interp.MergeTasks == 0 {
		t.Fatal("a run never folded a worker buffer: the pool did not run")
	}
	if res2.TotalFacts != res1.TotalFacts {
		t.Fatalf("warm rerun changed the result: %d vs %d facts", res2.TotalFacts, res1.TotalFacts)
	}
}

// TestJITShardedWarmRerunCSPA is the warm-rerun acceptance on the many-rule
// CSPA shape: dozens of structurally similar rules, every one of whose task
// units must resolve from the store on the second run.
func TestJITShardedWarmRerunCSPA(t *testing.T) {
	built := analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42))
	opts := core.Options{
		Indexed: true, SharedPlans: true, Shards: 4, Workers: 4, FanoutThreshold: 1,
		JIT: lambdaSPJ,
	}
	res1, err := built.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.JIT.Compilations == 0 {
		t.Fatalf("first CSPA run compiled nothing: %+v", res1.JIT)
	}
	res2, err := built.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.JIT.Compilations != 0 {
		t.Fatalf("CSPA warm rerun recompiled %d units", res2.JIT.Compilations)
	}
	if res1.Interp.MergeTasks == 0 || res2.Interp.MergeTasks == 0 {
		t.Fatal("a CSPA run never folded a worker buffer: the pool did not run")
	}
	if res2.TotalFacts != res1.TotalFacts {
		t.Fatalf("CSPA warm rerun changed the result: %d vs %d facts", res2.TotalFacts, res1.TotalFacts)
	}
}

// TestJITShardCountChangeReuses: a morsel-parameterized unit is invoked with
// its task's lo..hi of n, so the Shards count is no part of its key — a run
// at another count reuses the first count's task units, compiles nothing and
// derives the same facts.
func TestJITShardCountChangeReuses(t *testing.T) {
	built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
	at := func(shards int) core.Options {
		return core.Options{
			Indexed: true, SharedPlans: true, Shards: shards, Workers: 4, FanoutThreshold: 1,
			JIT: lambdaSPJ,
		}
	}
	res4, err := built.P.Run(at(4))
	if err != nil {
		t.Fatal(err)
	}
	if res4.JIT.Compilations == 0 {
		t.Fatalf("cold 4-shard run compiled nothing: %+v", res4.JIT)
	}
	for _, shards := range []int{8, 4} {
		res, err := built.P.Run(at(shards))
		if err != nil {
			t.Fatal(err)
		}
		if res.JIT.Compilations != 0 {
			t.Fatalf("a %d-shard run after a 4-shard run compiled %d units", shards, res.JIT.Compilations)
		}
		if res.Units.CrossRunHits == 0 {
			t.Fatalf("a %d-shard run served no cross-run unit hits: %+v", shards, res.Units)
		}
		if res.TotalFacts != res4.TotalFacts || res.Interp.Derivations != res4.Interp.Derivations {
			t.Fatalf("%d shards: %d facts, %d derivations; 4 shards: %d, %d",
				shards, res.TotalFacts, res.Interp.Derivations, res4.TotalFacts, res4.Interp.Derivations)
		}
		if res.Interp.MergeTasks == 0 {
			t.Fatal("a run never folded a worker buffer: the pool did not run")
		}
	}
}

// TestJITShardMergeStress hammers concurrent compiled morsel tasks and the
// merge barrier through the full engine with a threshold of 1, so every
// iteration — including one-tuple tails — fans out, runs ShardUnit bodies on
// the pool, and folds their buffers; repeated Programs and reruns stress the
// loans and the scratch pool underneath. Run under -race by the CI core job.
func TestJITShardMergeStress(t *testing.T) {
	seq := runJITTC(t, core.Options{Indexed: true, Workers: 1})
	for round := 0; round < 3; round++ {
		built := workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42)
		for rerun := 0; rerun < 2; rerun++ {
			res, err := built.P.Run(core.Options{
				Indexed: true, Shards: 8, Workers: 8, SharedPlans: true,
				FanoutThreshold: 1,
				JIT:             lambdaSPJ,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalFacts != seq.TotalFacts {
				t.Fatalf("round %d rerun %d: %d facts, want %d", round, rerun, res.TotalFacts, seq.TotalFacts)
			}
			if res.Interp.Derivations != seq.Interp.Derivations {
				t.Fatalf("round %d rerun %d: %d derivations, want %d", round, rerun, res.Interp.Derivations, seq.Interp.Derivations)
			}
			if res.Interp.MergeTasks == 0 {
				t.Fatalf("round %d rerun %d: the pool never folded a worker buffer", round, rerun)
			}
		}
	}
}

// TestJITShardedAsyncAndBackends sweeps the remaining pool×JIT cells the
// main differential matrix does not enumerate: lambda, the one backend a
// pool runs, compiling blocking and asynchronously, against the sequential
// oracle — facts, derivations, iterations and matches alike, except an
// asynchronous run's matches: a subquery the interpreter is scanning when
// its unit becomes ready yields to it, and the unit matches the scanned rows
// again.
func TestJITShardedAsyncAndBackends(t *testing.T) {
	seq := runJITTC(t, core.Options{Indexed: true, Workers: 1})
	for _, async := range []bool{false, true} {
		name := fmt.Sprintf("lambda/async=%v", async)
		res := runJITTC(t, core.Options{
			Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ, Async: async},
		})
		if async {
			if res.Interp.Matches < seq.Interp.Matches {
				t.Errorf("%s: %d matches, under the sequential %d", name, res.Interp.Matches, seq.Interp.Matches)
			}
			res.Interp.Matches = seq.Interp.Matches // the rows a yield matched twice
		}
		sameEvaluation(t, name, res, seq)
		if res.Interp.MergeTasks == 0 {
			t.Errorf("%s: the barrier never folded a worker buffer", name)
		}
	}
}

// FuzzJITShardRouting drives the fan-out's morsels through the JIT path:
// arbitrary edge lists evaluate transitive closure pooled with compiled
// morsel tasks and must reproduce the sequential fixpoint — the core-level
// extension of storage.FuzzShardRouting's morsel-cover property to compiled
// readers. Run the short-fuzz CI job with:
// go test -fuzz=FuzzJITShardRouting -fuzztime=20s ./internal/core/
func FuzzJITShardRouting(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4, 4, 1})
	f.Add(uint8(7), []byte{0, 0, 1, 0, 200, 200, 5, 9})
	f.Add(uint8(2), []byte{9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3})
	f.Fuzz(func(t *testing.T, nshards uint8, data []byte) {
		shards := 2 + int(nshards)%7
		if len(data) > 64 {
			data = data[:64]
		}
		build := func() *core.Program {
			p := core.NewProgram()
			edge := p.Relation("edge", 2)
			tc := p.Relation("tc", 2)
			x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
			p.MustRule(tc.A(x, y), edge.A(x, y))
			p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
			for i := 0; i+1 < len(data); i += 2 {
				edge.MustFact(int(data[i])%32, int(data[i+1])%32)
			}
			return p
		}
		sp := build()
		sres, err := sp.Run(core.Options{Indexed: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		jp := build()
		jres, err := jp.Run(core.Options{
			Indexed: true, Shards: shards, Workers: 4, FanoutThreshold: 1,
			JIT: lambdaSPJ,
		})
		if err != nil {
			t.Fatal(err)
		}
		if jres.TotalFacts != sres.TotalFacts {
			t.Fatalf("shards=%d: %d facts, sequential %d", shards, jres.TotalFacts, sres.TotalFacts)
		}
		want := snapshotAll(sp)
		got := snapshotAll(jp)
		for name, rows := range want {
			g := got[name]
			if len(g) != len(rows) {
				t.Fatalf("shards=%d: relation %s has %d tuples, sequential %d", shards, name, len(g), len(rows))
			}
			for i := range rows {
				if g[i] != rows[i] {
					t.Fatalf("shards=%d: relation %s row %d = %s, sequential %s", shards, name, i, g[i], rows[i])
				}
			}
		}
	})
}

// TestJITReordersCounted: every backend that reorders a clone before
// compiling it — not only irgen's in-place regeneration — reports the
// subqueries whose order it changed. The adversarial CSPA formulation is
// repaired by exactly those reorders, so the counter cannot read zero there.
func TestJITReordersCounted(t *testing.T) {
	for name, opts := range map[string]core.Options{
		"lambda":   {Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}},
		"bytecode": {Indexed: true, JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranUnionAll}},
		"quotes":   {Indexed: true, JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranUnionAll}},
		"shard":    {Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1, JIT: lambdaSPJ},
	} {
		built := analysis.CSPA(analysis.Unoptimized, datagen.CSPAGraph(80, 42))
		res, err := built.P.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.JIT.Compilations == 0 || res.JIT.Reorders == 0 {
			t.Errorf("%s: %d compilations reordered %d subqueries of the adversarial order", name, res.JIT.Compilations, res.JIT.Reorders)
		}
		if opts.Shards > 1 && res.Interp.MergeTasks == 0 {
			t.Errorf("%s: the pool never folded a worker buffer", name)
		}
	}
}
