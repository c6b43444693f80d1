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
	"carac/internal/plancache"
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
		b.Run(name+"/Carac-AdaptiveJIT", func(b *testing.B) {
			built := bf()
			for i := 0; i < b.N; i++ {
				if _, err := engines.RunCaracAdaptiveJIT(built, 8, 0, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Carac-Warm", func(b *testing.B) {
			built := bf()
			for i := 0; i < b.N; i++ {
				if _, err := engines.RunCaracWarm(built, 8, 0, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Skewed-graph row: the hub-and-spoke workload whose delta concentrates
	// in a few hot hash buckets, under the sharded engine.
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

// --- Plan cache & parallel executor -------------------------------------

// BenchmarkPlanCache measures drift-gated plan reuse against the seed's
// cold per-execution planning: the hit-rate metric demonstrates plans being
// reused across fixpoint iterations, the reuse metric the fraction of
// subquery executions that skipped planning entirely.
func BenchmarkPlanCache(b *testing.B) {
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
		{"ColdPlanning", core.Options{Indexed: true}},
		{"PlanCache", core.Options{Indexed: true, PlanCache: true}},
		{"Adaptive", core.Options{Indexed: true, AdaptivePlans: true}},
	}
	for _, w := range builds {
		for _, c := range configs {
			w, c := w, c
			b.Run(w.name+"/"+c.name, func(b *testing.B) {
				res := runProgram(b, w.build(), c.opts)
				if c.opts.PlanCache || c.opts.AdaptivePlans {
					b.ReportMetric(100*res.Plans.HitRate(), "hit%")
					if res.Interp.SPJRuns > 0 {
						b.ReportMetric(float64(res.Interp.PlanReuses)/float64(res.Interp.SPJRuns), "reuse/spj")
					}
					b.ReportMetric(float64(res.Interp.Reopts), "reopts")
				}
			})
		}
	}
}

// BenchmarkWarmRerun measures the Program-lifetime plan store: every
// iteration is a FULL re-run of an already-run Program, so the Cold
// configurations pay the per-Run re-planning (and re-compilation) tax on
// every iteration while SharedPlans starts from the store the previous run
// left behind. The custom metrics expose the acceptance properties
// directly: plan builds per run (strictly lower warm), cross-run hits
// (nonzero warm only), unit recompiles and cross-run unit reuse with a JIT
// attached, and the structural key count (below the rule count on the
// CSPA-style workload, whose rules share one shape).
func BenchmarkWarmRerun(b *testing.B) {
	sz := benchSizes
	cspa := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	builds := []struct {
		name  string
		build func() *analysis.Built
	}{
		{sz.CSPAName, func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, cspa) }},
		{"TransitiveClosure", func() *analysis.Built {
			return workloads.TransitiveClosure(analysis.HandOptimized, 300, 800, int(sz.Seed))
		}},
	}
	lambdaSPJ := jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"ColdPlanCache", core.Options{Indexed: true, PlanCache: true}},
		{"SharedPlans", core.Options{Indexed: true, SharedPlans: true}},
		{"ColdJIT", core.Options{Indexed: true, PlanCache: true, JIT: lambdaSPJ}},
		{"SharedPlansJIT", core.Options{Indexed: true, SharedPlans: true, JIT: lambdaSPJ}},
	}
	for _, w := range builds {
		for _, c := range configs {
			w, c := w, c
			b.Run(w.name+"/"+c.name, func(b *testing.B) {
				built := w.build()
				res := runProgram(b, built, c.opts)
				b.ReportMetric(float64(res.Interp.PlanBuilds), "planbuilds/run")
				b.ReportMetric(float64(res.Plans.CrossRunHits), "crossrun-hits")
				if c.opts.JIT.Backend != jit.BackendOff {
					b.ReportMetric(float64(res.JIT.Compilations), "recompiles/run")
					b.ReportMetric(float64(res.Units.Hits), "unit-reuses")
					b.ReportMetric(float64(res.Units.CrossRunHits), "unit-crossrun")
				}
				if c.opts.SharedPlans {
					b.ReportMetric(float64(built.P.PlanStore().Keys(plancache.ClassPlans)), "plan-keys")
				}
			})
		}
	}
}

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
		{"ParallelPlanCache", core.Options{Indexed: true, ParallelUnions: true, PlanCache: true}},
		{"ParallelAdaptive", core.Options{Indexed: true, ParallelUnions: true, AdaptivePlans: true}},
		{"Sharded8", core.Options{Indexed: true, Shards: 8}},
		{"Sharded8PlanCache", core.Options{Indexed: true, Shards: 8, PlanCache: true}},
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

// BenchmarkShardedSpeedup demonstrates the scaling property the sharded
// catalog exists for: a workload dominated by ONE recursive rule (transitive
// closure) cannot scale with -workers under rule-granular parallelism — the
// single rule serializes every iteration — but once Shards > 1 splits the
// rule's delta into hash buckets, the same workload scales with the worker
// count. Compare Parallel/W* (flat) against Sharded8/W* (scaling). The
// *JIT entries run the same fan-out with span-parameterized compiled units
// executing the bucket tasks — the fan-out × compilation interaction.
func BenchmarkShardedSpeedup(b *testing.B) {
	build := func() *analysis.Built {
		return workloads.TransitiveClosure(analysis.HandOptimized, 600, 1500, int(benchSizes.Seed))
	}
	lambdaSPJ := jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Sequential", core.Options{Indexed: true, PlanCache: true}},
		{"Parallel/W2", core.Options{Indexed: true, PlanCache: true, ParallelUnions: true, Workers: 2}},
		{"Parallel/W4", core.Options{Indexed: true, PlanCache: true, ParallelUnions: true, Workers: 4}},
		{"Sharded8/W1", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 1}},
		{"Sharded8/W2", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 2}},
		{"Sharded8/W4", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 4}},
		{"Sharded8JIT/W2", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 2, JIT: lambdaSPJ}},
		{"Sharded8JIT/W4", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 4, JIT: lambdaSPJ}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			runProgram(b, build(), c.opts)
		})
	}
}

// BenchmarkSkewedSpeedup isolates the skew story BenchmarkShardedSpeedup's
// uniform graph cannot show: on the hub-and-spoke SkewedGraph the delta
// concentrates in a few hash buckets, so the contiguous bucket span holding
// the hubs straggles and adding workers stops helping. Compare Sharded8/W*
// against Sequential: the skew crossover of the sharded fan-out.
func BenchmarkSkewedSpeedup(b *testing.B) {
	build := func() *analysis.Built {
		return workloads.SkewedGraph(analysis.HandOptimized, 600, 1400, 3, int(benchSizes.Seed))
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Sequential", core.Options{Indexed: true, PlanCache: true}},
		{"Sharded8/W2", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 2}},
		{"Sharded8/W4", core.Options{Indexed: true, PlanCache: true, Shards: 8, Workers: 4}},
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

// storageLayouts are the two layouts of storage.Relation, by benchmark name.
var storageLayouts = []struct {
	name string
	set  func(*storage.Relation)
}{
	{"Flat", func(*storage.Relation) {}},
	{"Physical8", func(r *storage.Relation) { r.SetShardKeyPhysical(8, 0) }},
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
					rel.ScanKey(0, storage.AllBuckets, storage.AllRows, col, []storage.Value{storage.Value(i % keys)}, func([]storage.Value) bool { visited++; return true })
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
			rel.ScanKey(0, storage.AllBuckets, storage.AllRows, col, []storage.Value{storage.Value(layerRows + i%layerRows)}, func([]storage.Value) bool {
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

// BenchmarkServeThroughput measures concurrent query serving: one warm run
// populates the program-lifetime plan store, then 4 snapshot-isolated
// sessions issue fixpoint queries concurrently through the server's shared
// worker pool. Each b.N iteration is one full drive of clients×queries;
// the headline custom metric is queries per second, with cross-run
// plan/unit reuse reported alongside.
func BenchmarkServeThroughput(b *testing.B) {
	sz := benchSizes
	cspa := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	configs := []struct {
		name   string
		useJIT bool
	}{
		{"Interp", false},
		{"JIT", true},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := engines.ServeConfig{
				Clients:          4,
				QueriesPerClient: 4,
				Workers:          4,
				UseJIT:           c.useJIT,
				Repeat:           1,
				Timeout:          2 * time.Minute,
			}
			built := analysis.CSPA(analysis.HandOptimized, cspa)
			// Prime Run + Serve happen inside the driver; drive once so the
			// measured iterations start from a warmed store.
			if _, err := engines.RunCaracServe(built, cfg); err != nil {
				b.Fatal(err)
			}
			var last *engines.ServeReport
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := engines.RunCaracServe(built, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			b.ReportMetric(last.QPS, "queries/sec")
			b.ReportMetric(float64(last.CrossRunHits), "crossrun-hits")
			b.ReportMetric(float64(last.TotalFacts), "facts/query")
		})
	}
}

// BenchmarkMaterializedServe measures materialized-epoch serving against the
// re-derive path it replaces. Three modes, interpreted and JIT-compiled:
// RepeatHeavy (materialized, 90% of queries repeat on a persistent session —
// the memo path), RepeatFree (materialized, every query arrives on a fresh
// session — the seeded-lookup path), and Rederive (materialization off, the
// PR-7 baseline where every query runs the fixpoint). The headline metric is
// queries per second; memo-hits shows how many queries skipped derivation.
func BenchmarkMaterializedServe(b *testing.B) {
	sz := benchSizes
	cspa := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	modes := []struct {
		name        string
		materialize bool
		repeat      float64
	}{
		{"RepeatHeavy", true, 0.9},
		{"RepeatFree", true, 0},
		{"Rederive", false, 0.9},
	}
	engcfg := []struct {
		name   string
		useJIT bool
	}{
		{"Interp", false},
		{"JIT", true},
	}
	for _, m := range modes {
		for _, c := range engcfg {
			m, c := m, c
			b.Run(m.name+"/"+c.name, func(b *testing.B) {
				cfg := engines.ServeConfig{
					Clients:          4,
					QueriesPerClient: 10,
					Workers:          4,
					UseJIT:           c.useJIT,
					Materialize:      m.materialize,
					Repeat:           m.repeat,
					Timeout:          2 * time.Minute,
				}
				built := analysis.CSPA(analysis.HandOptimized, cspa)
				if _, err := engines.RunCaracServe(built, cfg); err != nil {
					b.Fatal(err)
				}
				var last *engines.ServeReport
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := engines.RunCaracServe(built, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = rep
				}
				b.ReportMetric(last.QPS, "queries/sec")
				b.ReportMetric(float64(last.MemoHits), "memo-hits")
				b.ReportMetric(float64(last.TotalFacts), "facts/query")
			})
		}
	}
}

// BenchmarkStreamingIngest measures incremental view maintenance under a
// streaming churn load: a standing transitive-closure fixpoint absorbs
// alternating delete / re-insert batches over a fixed churn set of ground
// edges via Program.Apply, so every measured batch runs the warm
// counting/DRed path (over-delete, rederive, monotone continuation) instead
// of a cold recompute. Modes compare the incremental path against
// Naive-forced full recomputation of the same batches, interpreted and
// JIT-compiled. retracted/batch and rederived/batch confirm the deletions do
// real work; cold-batches must be 0 on the incremental modes (after the
// bootstrap run) and equal to every batch on Recompute.
func BenchmarkStreamingIngest(b *testing.B) {
	sz := benchSizes
	const churnEdges = 8
	modes := []struct {
		name  string
		naive bool // forces ApplyResult.Cold: full recompute per batch
	}{
		{"Incremental", false},
		{"Recompute", true},
	}
	engcfg := []struct {
		name string
		jit  jit.Config
	}{
		{"Interp", jit.Config{}},
		{"JIT", jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}},
	}
	for _, m := range modes {
		for _, c := range engcfg {
			m, c := m, c
			b.Run(m.name+"/"+c.name, func(b *testing.B) {
				built := workloads.TransitiveClosure(analysis.HandOptimized, 400, 1200, int(sz.Seed))
				p := built.P
				edge := p.Relation("edge", 2)
				// Churn set: edges from fresh node IDs into the random graph,
				// so they exist exactly once and their closure rows genuinely
				// appear and disappear with them. Half get a permanent 2-hop
				// detour so their closure rows survive the over-delete via
				// rederivation; the other half's rows are physically removed.
				churn := make([][]storage.Value, churnEdges)
				for i := range churn {
					src, dst := storage.Value(400+i), storage.Value((i*37)%400)
					churn[i] = []storage.Value{src, dst}
					edge.FactTuple(churn[i])
					if i%2 == 0 {
						via := storage.Value(500 + i)
						edge.FactTuple([]storage.Value{src, via})
						edge.FactTuple([]storage.Value{via, dst})
					}
				}
				opts := core.Options{
					Indexed:     true,
					SharedPlans: true,
					Naive:       m.naive,
					Timeout:     2 * time.Minute,
					JIT:         c.jit,
				}
				// Bootstrap fixpoint: the first transaction is always cold.
				if _, err := p.Run(opts); err != nil {
					b.Fatal(err)
				}
				var retracted, rederived, cold, batches int64
				step := func(del bool) {
					tx := p.NewTx()
					for _, t := range churn {
						if del {
							tx.DeleteTuple(edge, t)
						} else {
							tx.InsertTuple(edge, t)
						}
					}
					res, err := p.Apply(tx, opts)
					if err != nil {
						b.Fatal(err)
					}
					retracted += int64(res.Retracted)
					rederived += int64(res.Rederived)
					if res.Cold {
						cold++
					}
					batches++
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(true)  // retract the churn set
					step(false) // assert it back: state is identical every iteration
				}
				b.ReportMetric(float64(retracted)/float64(batches), "retracted/batch")
				b.ReportMetric(float64(rederived)/float64(batches), "rederived/batch")
				b.ReportMetric(float64(cold), "cold-batches")
			})
		}
	}
}
