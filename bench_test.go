// Benchmarks regenerating the paper's evaluation (§VI), one per table and
// figure, at ScaleSmall so `go test -bench=.` stays tractable; use
// cmd/caracbench for the paper-style tables at larger scales.
package carac

import (
	"fmt"
	"testing"
	"time"

	"carac/internal/analysis"
	"carac/internal/bench"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/engines"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/jit/bytecode"
	"carac/internal/jit/lambda"
	"carac/internal/jit/quotes"
	"carac/internal/optimizer"
	"carac/internal/storage"
	"carac/internal/workloads"
)

func newBenchRelation(indexed bool) *storage.Relation {
	r := storage.NewRelation("bench", 2)
	if indexed {
		r.BuildIndex(0)
	}
	return r
}

var benchSizes = bench.SizesFor(bench.ScaleSmall)

// runProgram benchmarks repeated runs of one prepared program, returning the
// last run's Result for benchmarks that report cache metrics.
func runProgram(b *testing.B, built *analysis.Built, opts core.Options) *core.Result {
	b.Helper()
	opts.Timeout = 2 * time.Minute
	// Warm once (captures the ground-fact baseline, registers indexes).
	if _, err := built.P.Run(opts); err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := built.P.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// --- Table I: interpreted execution time -------------------------------

func BenchmarkTable1(b *testing.B) {
	sz := benchSizes
	pts := datagen.SListLib(sz.SListLib, sz.Seed)
	cspa := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	csda := datagen.CSDAGraph(sz.CSDA, sz.Seed)

	cases := []struct {
		name  string
		form  analysis.Formulation
		build func(analysis.Formulation) *analysis.Built
	}{
		{"Ackermann", analysis.Unoptimized, func(f analysis.Formulation) *analysis.Built { return workloads.Ackermann(f, sz.AckM, sz.AckN) }},
		{"Ackermann", analysis.HandOptimized, func(f analysis.Formulation) *analysis.Built { return workloads.Ackermann(f, sz.AckM, sz.AckN) }},
		{"Fibonacci", analysis.Unoptimized, func(f analysis.Formulation) *analysis.Built { return workloads.Fibonacci(f, sz.FibN) }},
		{"Fibonacci", analysis.HandOptimized, func(f analysis.Formulation) *analysis.Built { return workloads.Fibonacci(f, sz.FibN) }},
		{"Primes", analysis.Unoptimized, func(f analysis.Formulation) *analysis.Built { return workloads.Primes(f, sz.PrimesN) }},
		{"Primes", analysis.HandOptimized, func(f analysis.Formulation) *analysis.Built { return workloads.Primes(f, sz.PrimesN) }},
		{"Andersen", analysis.Unoptimized, func(f analysis.Formulation) *analysis.Built { return analysis.Andersen(f, pts) }},
		{"Andersen", analysis.HandOptimized, func(f analysis.Formulation) *analysis.Built { return analysis.Andersen(f, pts) }},
		{"InvFuns", analysis.Unoptimized, func(f analysis.Formulation) *analysis.Built { return analysis.InvFuns(f, pts) }},
		{"InvFuns", analysis.HandOptimized, func(f analysis.Formulation) *analysis.Built { return analysis.InvFuns(f, pts) }},
		{sz.CSPAName, analysis.Unoptimized, func(f analysis.Formulation) *analysis.Built { return analysis.CSPA(f, cspa) }},
		{sz.CSPAName, analysis.HandOptimized, func(f analysis.Formulation) *analysis.Built { return analysis.CSPA(f, cspa) }},
		{"CSDA", analysis.HandOptimized, func(analysis.Formulation) *analysis.Built { return analysis.CSDA(csda) }},
	}
	for _, c := range cases {
		for _, indexed := range []bool{false, true} {
			if !indexed && (c.name == "CSDA" || c.name == sz.CSPAName) {
				continue // paper runs these indexed-only
			}
			idx := "Unindexed"
			if indexed {
				idx = "Indexed"
			}
			c := c
			indexed := indexed
			b.Run(c.name+"/"+idx+"/"+c.form.String(), func(b *testing.B) {
				runProgram(b, c.build(c.form), core.Options{Indexed: indexed})
			})
		}
	}
}

// --- Fig 5: code-generation time per granularity ------------------------

func BenchmarkFig5_Codegen(b *testing.B) {
	built := analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(benchSizes.CSPA, benchSizes.Seed))
	root, err := ir.Lower(built.P.AST())
	if err != nil {
		b.Fatal(err)
	}
	cat := built.P.Catalog()
	nodes := map[string]ir.Op{}
	ir.Walk(root, func(o ir.Op) {
		key := o.Kind().String()
		if _, ok := nodes[key]; !ok {
			nodes[key] = o
		}
	})

	for _, gran := range []string{"ProgramOp", "DoWhileOp", "UnionOp*", "UnionOp", "SPJ"} {
		op := nodes[gran]
		if op == nil {
			continue
		}
		b.Run("QuotesWarmFull/"+gran, func(b *testing.B) {
			c := quotes.NewCompiler()
			if _, err := c.Compile(op, cat, false); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compile(op, cat, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("QuotesColdFull/"+gran, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := quotes.NewCompiler().Compile(op, cat, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("QuotesWarmSnippet/"+gran, func(b *testing.B) {
			c := quotes.NewCompiler()
			if _, err := c.Compile(op, cat, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compile(op, cat, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Bytecode/"+gran, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (bytecode.Compiler{}).Compile(op, cat, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Lambda/"+gran, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (lambda.Compiler{}).Compile(op, cat, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figs 6/7: JIT speedup over unoptimized inputs -----------------------

func benchJITConfigs(b *testing.B, build func(analysis.Formulation) *analysis.Built, inputForm analysis.Formulation) {
	b.Helper()
	b.Run("InterpBaseline", func(b *testing.B) {
		runProgram(b, build(inputForm), core.Options{Indexed: true})
	})
	for _, jc := range bench.JITConfigs() {
		jc := jc
		b.Run(jc.Name, func(b *testing.B) {
			runProgram(b, build(inputForm), core.Options{Indexed: true, JIT: jc.Cfg})
		})
	}
}

func BenchmarkFig6_Macro(b *testing.B) {
	sz := benchSizes
	pts := datagen.SListLib(sz.SListLib, sz.Seed)
	cspa := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	b.Run("Andersen", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return analysis.Andersen(f, pts) }, analysis.Unoptimized)
	})
	b.Run("InvFuns", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return analysis.InvFuns(f, pts) }, analysis.Unoptimized)
	})
	b.Run(sz.CSPAName, func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return analysis.CSPA(f, cspa) }, analysis.Unoptimized)
	})
}

func BenchmarkFig7_Micro(b *testing.B) {
	sz := benchSizes
	b.Run("Ackermann", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return workloads.Ackermann(f, sz.AckM, sz.AckN) }, analysis.Unoptimized)
	})
	b.Run("Fibonacci", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return workloads.Fibonacci(f, sz.FibN) }, analysis.Unoptimized)
	})
	b.Run("Primes", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return workloads.Primes(f, sz.PrimesN) }, analysis.Unoptimized)
	})
}

// --- Figs 8/9: JIT applied to already hand-optimized inputs --------------

func BenchmarkFig8_MacroHandOpt(b *testing.B) {
	sz := benchSizes
	pts := datagen.SListLib(sz.SListLib, sz.Seed)
	csda := datagen.CSDAGraph(sz.CSDA, sz.Seed)
	b.Run("Andersen", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return analysis.Andersen(f, pts) }, analysis.HandOptimized)
	})
	b.Run("CSDA", func(b *testing.B) {
		benchJITConfigs(b, func(analysis.Formulation) *analysis.Built { return analysis.CSDA(csda) }, analysis.HandOptimized)
	})
}

func BenchmarkFig9_MicroHandOpt(b *testing.B) {
	sz := benchSizes
	b.Run("Ackermann", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return workloads.Ackermann(f, sz.AckM, sz.AckN) }, analysis.HandOptimized)
	})
	b.Run("Primes", func(b *testing.B) {
		benchJITConfigs(b, func(f analysis.Formulation) *analysis.Built { return workloads.Primes(f, sz.PrimesN) }, analysis.HandOptimized)
	})
}

// --- Fig 10: AOT macro staging vs online ---------------------------------

func BenchmarkFig10_AOT(b *testing.B) {
	sz := benchSizes
	configs := []struct {
		name string
		opts core.Options
	}{
		{"JIT-lambda", core.Options{JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}},
		{"MacroFactsRulesOnline", core.Options{AOT: core.AOTFactsAndRules, JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}},
		{"MacroRulesOnline", core.Options{AOT: core.AOTRulesOnly, JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}},
		{"MacroFactsRules", core.Options{AOT: core.AOTFactsAndRules}},
		{"MacroRules", core.Options{AOT: core.AOTRulesOnly}},
	}
	micro := map[string]func(analysis.Formulation) *analysis.Built{
		"Ackermann": func(f analysis.Formulation) *analysis.Built { return workloads.Ackermann(f, sz.AckM, sz.AckN) },
		"Fibonacci": func(f analysis.Formulation) *analysis.Built { return workloads.Fibonacci(f, sz.FibN) },
		"Primes":    func(f analysis.Formulation) *analysis.Built { return workloads.Primes(f, sz.PrimesN) },
	}
	for name, build := range micro {
		for _, c := range configs {
			c := c
			build := build
			b.Run(name+"/"+c.name, func(b *testing.B) {
				runProgram(b, build(analysis.Unoptimized), c.opts)
			})
		}
	}
}

// --- Table II: baseline engines -----------------------------------------

func BenchmarkTable2_Engines(b *testing.B) {
	sz := benchSizes
	pts := datagen.SListLib(sz.SListLib, sz.Seed)
	csda := datagen.CSDAGraph(sz.CSDA, sz.Seed)
	build := map[string]func() *analysis.Built{
		"InvFuns": func() *analysis.Built { return analysis.InvFuns(analysis.HandOptimized, pts) },
		"CSDA":    func() *analysis.Built { return analysis.CSDA(csda) },
	}
	const cxx = 50 * time.Millisecond // scaled-down external compile cost
	for name, bf := range build {
		bf := bf
		b.Run(name+"/DLX", func(b *testing.B) {
			built := bf()
			for i := 0; i < b.N; i++ {
				if _, err := engines.RunDLX(built, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, mode := range []engines.SouffleMode{engines.SouffleInterp, engines.SouffleCompile, engines.SouffleAutoTune} {
			mode := mode
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				built := bf()
				for i := 0; i < b.N; i++ {
					if _, err := engines.RunSouffle(built, mode, cxx, time.Minute); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(name+"/Carac-JIT", func(b *testing.B) {
			runProgram(b, bf(), core.Options{Indexed: true,
				JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}})
		})
		b.Run(name+"/Carac-Sharded", func(b *testing.B) {
			built := bf()
			for i := 0; i < b.N; i++ {
				if _, err := engines.RunCaracSharded(built, 8, 0, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Skewed-graph row: the hub-and-spoke workload whose delta concentrates
	// on a few hub nodes, under the sharded engine.
	b.Run("SkewedTC/Carac-Sharded", func(b *testing.B) {
		built := workloads.SkewedGraph(analysis.HandOptimized, 400, 900, 3, int(benchSizes.Seed))
		for i := 0; i < b.N; i++ {
			if _, err := engines.RunCaracSharded(built, 8, 0, time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ------------------------------------------------------------

func BenchmarkAblation_Ordering(b *testing.B) {
	cspa := datagen.CSPAGraph(benchSizes.CSPA, benchSizes.Seed)
	for _, algo := range []optimizer.Algo{optimizer.AlgoSort, optimizer.AlgoGreedy} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			runProgram(b, analysis.CSPA(analysis.Unoptimized, cspa), core.Options{
				Indexed: true,
				JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ,
					Optimizer: optimizer.Options{Algo: algo, Selectivity: 0.5}},
			})
		})
	}
}

func BenchmarkAblation_Granularity(b *testing.B) {
	cspa := datagen.CSPAGraph(benchSizes.CSPA, benchSizes.Seed)
	for _, g := range []jit.Granularity{jit.GranProgram, jit.GranDoWhile, jit.GranUnionAll, jit.GranUnionRule, jit.GranSPJ} {
		g := g
		b.Run(g.String(), func(b *testing.B) {
			runProgram(b, analysis.CSPA(analysis.Unoptimized, cspa), core.Options{
				Indexed: true,
				JIT:     jit.Config{Backend: jit.BackendLambda, Granularity: g},
			})
		})
	}
}

func BenchmarkAblation_Freshness(b *testing.B) {
	cspa := datagen.CSPAGraph(benchSizes.CSPA, benchSizes.Seed)
	for _, th := range []float64{0.01, 0.5, 4} {
		th := th
		b.Run(bench.FormatSpeedup(th), func(b *testing.B) {
			runProgram(b, analysis.CSPA(analysis.Unoptimized, cspa), core.Options{
				Indexed: true,
				JIT:     jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll, FreshnessThreshold: th},
			})
		})
	}
}

// --- Parallel executor ---------------------------------------------------

// BenchmarkParallelFixpoint compares the sequential semi-naive driver
// against the bounded-pool parallel rule executor on two workloads.
func BenchmarkParallelFixpoint(b *testing.B) {
	sz := benchSizes
	cspa := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	csda := datagen.CSDAGraph(sz.CSDA, sz.Seed)
	builds := []struct {
		name  string
		build func() *analysis.Built
	}{
		{sz.CSPAName, func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, cspa) }},
		{"CSDA", func() *analysis.Built { return analysis.CSDA(csda) }},
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Sequential", core.Options{Indexed: true}},
		{"Parallel", core.Options{Indexed: true, ParallelUnions: true}},
		{"Parallel2", core.Options{Indexed: true, ParallelUnions: true, Workers: 2}},
		{"Sharded8", core.Options{Indexed: true, Shards: 8}},
	}
	for _, w := range builds {
		for _, c := range configs {
			w, c := w, c
			b.Run(w.name+"/"+c.name, func(b *testing.B) {
				runProgram(b, w.build(), c.opts)
			})
		}
	}
}

// BenchmarkShardedSpeedup demonstrates the scaling property morsel tasks
// exist for: a workload dominated by ONE recursive rule (transitive
// closure) cannot scale with -workers under rule-granular parallelism — the
// single rule serializes every iteration — but once Shards > 1 splits the
// rule's δ into morsels, the same workload scales with the worker count.
// Compare Parallel/W* (rule-granular) against Sharded8/W* (scaling). The
// *JIT entries run the same fan-out with morsel-parameterized compiled units
// executing the tasks — the fan-out × compilation interaction.
func BenchmarkShardedSpeedup(b *testing.B) {
	build := func() *analysis.Built {
		return workloads.TransitiveClosure(analysis.HandOptimized, 600, 1500, int(benchSizes.Seed))
	}
	lambdaSPJ := jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Sequential", core.Options{Indexed: true}},
		{"Parallel/W2", core.Options{Indexed: true, ParallelUnions: true, Workers: 2}},
		{"Parallel/W4", core.Options{Indexed: true, ParallelUnions: true, Workers: 4}},
		{"Sharded8/W1", core.Options{Indexed: true, Shards: 8, Workers: 1}},
		{"Sharded8/W2", core.Options{Indexed: true, Shards: 8, Workers: 2}},
		{"Sharded8/W4", core.Options{Indexed: true, Shards: 8, Workers: 4}},
		{"Sharded8JIT/W2", core.Options{Indexed: true, Shards: 8, Workers: 2, JIT: lambdaSPJ}},
		{"Sharded8JIT/W4", core.Options{Indexed: true, Shards: 8, Workers: 4, JIT: lambdaSPJ}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			runProgram(b, build(), c.opts)
		})
	}
}

// BenchmarkSkewedSpeedup isolates the skew story BenchmarkShardedSpeedup's
// uniform graph cannot show: on the hub-and-spoke SkewedGraph the δ rows
// joining through the hubs cost far more than the rest, so a task whose
// morsel holds more of them straggles and adding workers helps less. Compare
// Sharded8/W* against Sequential: the skew crossover of the pooled fan-out.
func BenchmarkSkewedSpeedup(b *testing.B) {
	build := func() *analysis.Built {
		return workloads.SkewedGraph(analysis.HandOptimized, 600, 1400, 3, int(benchSizes.Seed))
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Sequential", core.Options{Indexed: true}},
		{"Sharded8/W2", core.Options{Indexed: true, Shards: 8, Workers: 2}},
		{"Sharded8/W4", core.Options{Indexed: true, Shards: 8, Workers: 4}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			runProgram(b, build(), c.opts)
		})
	}
}

func BenchmarkStorageInsert(b *testing.B) {
	// Substrate microbenchmark: raw insert throughput with and without an
	// incremental index.
	for _, indexed := range []bool{false, true} {
		name := "Unindexed"
		if indexed {
			name = "Indexed"
		}
		indexed := indexed
		b.Run(name, func(b *testing.B) {
			rel := newBenchRelation(indexed)
			tuple := []int32{0, 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tuple[0] = int32(i % 65536)
				tuple[1] = int32(i)
				rel.Insert(tuple)
			}
		})
	}
}

// storageLayouts are the layouts of storage.Relation, by benchmark name:
// one, flat, kept as a table so the benchmark names stay comparable.
var storageLayouts = []struct {
	name string
	set  func(*storage.Relation)
}{
	{"Flat", func(*storage.Relation) {}},
}

// layerRows is the relation size of the dedup / probe layer benchmarks: a
// mid-fixpoint delta, small enough that the table stays in cache.
const layerRows = 30000

// benchStorageLayer runs body once per arity (2 and 3) and layout over an
// unindexed relation, pre-filled with layerRows rows when filled is set. row
// writes the i-th row into t; rows layerRows and up are absent.
func benchStorageLayer(b *testing.B, filled bool, body func(b *testing.B, rel *storage.Relation, t []storage.Value, row func(i int))) {
	for _, arity := range []int{2, 3} {
		for _, lay := range storageLayouts {
			b.Run(fmt.Sprintf("Arity%d/%s", arity, lay.name), func(b *testing.B) {
				rel := storage.NewRelation("bench", arity)
				lay.set(rel)
				t := make([]storage.Value, arity)
				row := func(i int) { t[0], t[arity-1] = storage.Value(i%1009), storage.Value(i) }
				if filled {
					for i := 0; i < layerRows; i++ {
						row(i)
						rel.Insert(t)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				body(b, rel, t, row)
			})
		}
	}
}

// BenchmarkContainsHit: one membership probe of a stored row — the set
// difference against Derived that every derivation pays.
func BenchmarkContainsHit(b *testing.B) {
	benchStorageLayer(b, true, func(b *testing.B, rel *storage.Relation, t []storage.Value, row func(int)) {
		for i := 0; i < b.N; i++ {
			row(i % layerRows)
			if !rel.Contains(t) {
				b.Fatal("stored row missing")
			}
		}
	})
}

// BenchmarkContainsMiss: one membership probe of an absent row.
func BenchmarkContainsMiss(b *testing.B) {
	benchStorageLayer(b, true, func(b *testing.B, rel *storage.Relation, t []storage.Value, row func(int)) {
		for i := 0; i < b.N; i++ {
			row(layerRows + i%layerRows)
			if rel.Contains(t) {
				b.Fatal("phantom row")
			}
		}
	})
}

// BenchmarkInsertClearCycle: fill a relation with layerRows rows and Clear it
// — one semi-naive iteration of a delta relation (derive into it, merge,
// swap, clear). Allocated bytes per cycle are the point.
func BenchmarkInsertClearCycle(b *testing.B) {
	benchStorageLayer(b, false, func(b *testing.B, rel *storage.Relation, t []storage.Value, row func(int)) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < layerRows; j++ {
				row(j)
				rel.Insert(t)
			}
			rel.Clear()
		}
	})
}

// benchIndexLayer runs body once per layout over an arity-2 relation indexed
// on both columns, pre-filled with layerRows rows of perKey rows per column-0
// key when perKey > 0. row writes the i-th row into t.
func benchIndexLayer(b *testing.B, perKey int, body func(b *testing.B, rel *storage.Relation, t []storage.Value, row func(i int))) {
	for _, lay := range storageLayouts {
		b.Run(lay.name, func(b *testing.B) {
			rel := storage.NewRelation("bench", 2)
			rel.BuildIndex(0)
			rel.BuildIndex(1)
			lay.set(rel)
			keys := layerRows / max(perKey, 1)
			t := make([]storage.Value, 2)
			row := func(i int) { t[0], t[1] = storage.Value(i%keys), storage.Value(i) }
			if perKey > 0 {
				for i := 0; i < layerRows; i++ {
					row(i)
					rel.Insert(t)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			body(b, rel, t, row)
		})
	}
}

// BenchmarkIndexedInsert: one insert of a new row into a relation with two
// indexes — what every derivation pays twice, in δ′ and again in Derived.
func BenchmarkIndexedInsert(b *testing.B) {
	benchIndexLayer(b, 0, func(b *testing.B, rel *storage.Relation, t []storage.Value, row func(int)) {
		for i := 0; i < b.N; i++ {
			t[0], t[1] = storage.Value(i%1009), storage.Value(i)
			rel.Insert(t)
		}
	})
}

// BenchmarkProbeHit: one index probe visiting every row of its key — about
// one row per key, a CSPA-like hundred and a TC-like six hundred. The long
// chain is the one to watch: a chain walk is a dependent load per row where a
// posting list was sequential. ns/row is the per-visited-row cost.
func BenchmarkProbeHit(b *testing.B) {
	for _, perKey := range []int{1, 100, 600} {
		b.Run(fmt.Sprintf("PerKey%d", perKey), func(b *testing.B) {
			benchIndexLayer(b, perKey, func(b *testing.B, rel *storage.Relation, _ []storage.Value, _ func(int)) {
				keys, visited := layerRows/perKey, 0
				col := []int{0}
				for i := 0; i < b.N; i++ {
					rel.ScanKey(0, storage.AllRows, col, []storage.Value{storage.Value(i % keys)}, func([]storage.Value) bool { visited++; return true })
				}
				if visited != b.N*perKey {
					b.Fatalf("visited %d rows, want %d", visited, b.N*perKey)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/row")
			})
		})
	}
}

// BenchmarkProbeMiss: one index probe of an absent key.
func BenchmarkProbeMiss(b *testing.B) {
	benchIndexLayer(b, 100, func(b *testing.B, rel *storage.Relation, _ []storage.Value, _ func(int)) {
		col := []int{0}
		for i := 0; i < b.N; i++ {
			rel.ScanKey(0, storage.AllRows, col, []storage.Value{storage.Value(layerRows + i%layerRows)}, func([]storage.Value) bool {
				b.Fatal("phantom row")
				return false
			})
		}
	})
}

// BenchmarkIndexedInsertClearCycle: BenchmarkInsertClearCycle with the two
// indexes a delta relation of a join rule carries. Allocated bytes per cycle
// are the point.
func BenchmarkIndexedInsertClearCycle(b *testing.B) {
	benchIndexLayer(b, 0, func(b *testing.B, rel *storage.Relation, t []storage.Value, _ func(int)) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < layerRows; j++ {
				t[0], t[1] = storage.Value(j%1009), storage.Value(j)
				rel.Insert(t)
			}
			rel.Clear()
		}
	})
}
