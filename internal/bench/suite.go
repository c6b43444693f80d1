// Experiment suite: one entry per table/figure of the paper's evaluation
// (§VI), shared by cmd/caracbench and the root testing.B benchmarks. Each
// experiment builds fresh programs per measurement so that rule
// formulations and index registrations never leak between configurations.
package bench

import (
	"fmt"
	"io"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/engines"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/jit/bytecode"
	"carac/internal/jit/lambda"
	"carac/internal/jit/quotes"
	"carac/internal/optimizer"
	"carac/internal/workloads"
)

// Scale selects dataset sizes. The paper's full httpd dataset corresponds to
// ScaleFull; smaller scales keep the adversarial ("unoptimized") cells
// finishable on modest machines — the paper itself reports 19777 s for
// unoptimized CSPA_20k.
type Scale int

const (
	// ScaleSmall is for smoke runs and CI.
	ScaleSmall Scale = iota
	// ScaleMedium is the default for the harness.
	ScaleMedium
	// ScaleFull approaches the paper's CSPA_20k setting.
	ScaleFull
)

// ParseScale converts a CLI string.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium", "":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q (want small|medium|full)", s)
}

// Sizes holds the concrete dataset parameters for a scale.
type Sizes struct {
	CSPAName string
	CSPA     int
	CSDA     int
	SListLib int
	FibN     int
	AckM     int
	AckN     int
	PrimesN  int
	Seed     int64
}

// SizesFor returns the dataset parameters of a scale. The CSPA closure grows
// superlinearly in input edges (hand-optimized n=400 derives ~54k facts;
// unoptimized is 10-30x slower and climbing), so the input counts are far
// below the paper's 20k-tuple httpd sample while still exhibiting the same
// blow-up.
func SizesFor(s Scale) Sizes {
	switch s {
	case ScaleSmall:
		return Sizes{CSPAName: "CSPA_150", CSPA: 150, CSDA: 2000, SListLib: 1, FibN: 15, AckM: 2, AckN: 8, PrimesN: 60, Seed: 42}
	case ScaleFull:
		return Sizes{CSPAName: "CSPA_600", CSPA: 600, CSDA: 50000, SListLib: 8, FibN: 25, AckM: 3, AckN: 10, PrimesN: 250, Seed: 42}
	default:
		return Sizes{CSPAName: "CSPA_300", CSPA: 300, CSDA: 10000, SListLib: 3, FibN: 20, AckM: 2, AckN: 10, PrimesN: 120, Seed: 42}
	}
}

// Workload is one benchmark program in the registry.
type Workload struct {
	Name  string
	Micro bool
	// SingleForm marks workloads without an unoptimized formulation (CSDA:
	// only 2-way joins, §VI-B).
	SingleForm bool
	Build      func(form analysis.Formulation) *analysis.Built
}

// Suite carries the configured experiment environment.
type Suite struct {
	Sizes   Sizes
	Opts    Options
	Verbose io.Writer // nil = quiet progress
}

// NewSuite builds a suite for the scale with measurement options.
func NewSuite(scale Scale, opts Options) *Suite {
	return &Suite{Sizes: SizesFor(scale), Opts: opts}
}

func (s *Suite) progress(format string, args ...any) {
	if s.Verbose != nil {
		fmt.Fprintf(s.Verbose, format+"\n", args...)
	}
}

// Macro returns the macrobenchmark registry (Figs 6/8, Tables I/II).
func (s *Suite) Macro() []Workload {
	sz := s.Sizes
	cspaFacts := datagen.CSPAGraph(sz.CSPA, sz.Seed)
	csdaFacts := datagen.CSDAGraph(sz.CSDA, sz.Seed)
	ptsFacts := datagen.SListLib(sz.SListLib, sz.Seed)
	return []Workload{
		{Name: "Andersen", Build: func(f analysis.Formulation) *analysis.Built { return analysis.Andersen(f, ptsFacts) }},
		{Name: "InvFuns", Build: func(f analysis.Formulation) *analysis.Built { return analysis.InvFuns(f, ptsFacts) }},
		{Name: sz.CSPAName, Build: func(f analysis.Formulation) *analysis.Built { return analysis.CSPA(f, cspaFacts) }},
		{Name: "CSDA", SingleForm: true, Build: func(analysis.Formulation) *analysis.Built { return analysis.CSDA(csdaFacts) }},
	}
}

// Micro returns the microbenchmark registry (Figs 7/9/10, Table I).
func (s *Suite) Micro() []Workload {
	sz := s.Sizes
	return []Workload{
		{Name: "Ackermann", Micro: true, Build: func(f analysis.Formulation) *analysis.Built { return workloads.Ackermann(f, sz.AckM, sz.AckN) }},
		{Name: "Fibonacci", Micro: true, Build: func(f analysis.Formulation) *analysis.Built { return workloads.Fibonacci(f, sz.FibN) }},
		{Name: "Primes", Micro: true, Build: func(f analysis.Formulation) *analysis.Built { return workloads.Primes(f, sz.PrimesN) }},
	}
}

// JITConfig is one bar of Figs 6-9.
type JITConfig struct {
	Name string
	Cfg  jit.Config
}

// JITConfigs returns the six JIT bars of Figs 6-9: IRGenerator (pushed fully
// to runtime at σπ⋈ granularity), Lambda blocking, Bytecode async+blocking,
// Quotes async+blocking (codegen targets at Union* granularity).
func JITConfigs() []JITConfig {
	mk := func(b jit.Backend, g jit.Granularity, async bool) jit.Config {
		return jit.Config{Backend: b, Granularity: g, Async: async}
	}
	return []JITConfig{
		{"JIT IRGenerator", mk(jit.BackendIRGen, jit.GranSPJ, false)},
		{"JIT Lambda Blocking", mk(jit.BackendLambda, jit.GranUnionAll, false)},
		{"JIT Bytecode Async", mk(jit.BackendBytecode, jit.GranUnionAll, true)},
		{"JIT Bytecode Blocking", mk(jit.BackendBytecode, jit.GranUnionAll, false)},
		{"JIT Quotes Async", mk(jit.BackendQuotes, jit.GranUnionAll, true)},
		{"JIT Quotes Blocking", mk(jit.BackendQuotes, jit.GranUnionAll, false)},
	}
}

// measureRun wraps a program build into a Runner.
func (s *Suite) runner(name string, build func() *analysis.Built, opts core.Options) Runner {
	if s.Opts.Timeout > 0 {
		opts.Timeout = s.Opts.Timeout
	}
	return Runner{
		Name: name,
		Build: func() (Run, error) {
			b := build()
			return func() (time.Duration, error) {
				res, err := b.P.Run(opts)
				if err != nil {
					return 0, err
				}
				return res.Duration, nil
			}, nil
		},
	}
}

// Table1 reproduces Table I: average execution time (s) of interpreted
// queries, {unindexed, indexed} × {unoptimized, hand-optimized}. CSDA and
// CSPA run indexed only, as in the paper.
func (s *Suite) Table1() *Table {
	t := &Table{Header: []string{"Benchmark", "Unindexed/Unopt", "Unindexed/Opt", "Indexed/Unopt", "Indexed/Opt"}}
	all := append(s.Micro(), s.Macro()...)
	for _, w := range all {
		s.progress("table1: %s", w.Name)
		indexedOnly := w.Name == "CSDA" || w.Name == s.Sizes.CSPAName
		row := []string{w.Name}
		for _, cell := range []struct {
			indexed bool
			form    analysis.Formulation
		}{
			{false, analysis.Unoptimized},
			{false, analysis.HandOptimized},
			{true, analysis.Unoptimized},
			{true, analysis.HandOptimized},
		} {
			if indexedOnly && !cell.indexed {
				row = append(row, "-")
				continue
			}
			form := cell.form
			if w.SingleForm {
				form = analysis.HandOptimized
			}
			m := Measure(s.runner(w.Name, func() *analysis.Built { return w.Build(form) },
				core.Options{Indexed: cell.indexed}), s.Opts)
			row = append(row, Cell(m))
		}
		t.Add(row...)
	}
	return t
}

// speedupFigure runs the Fig 6-9 layout: per workload, the interpreted
// baseline in `baseForm` vs hand-optimized (Fig 6/7 only) and the six JIT
// configs applied to inputs in `inputForm`; speedups are relative to the
// interpreted `baseForm` run, split by indexed/unindexed.
func (s *Suite) speedupFigure(ws []Workload, inputForm analysis.Formulation, withHandOpt bool) *Table {
	header := []string{"Benchmark", "Indexed"}
	if withHandOpt {
		header = append(header, "Hand-Optimized")
	}
	for _, jc := range JITConfigs() {
		header = append(header, jc.Name)
	}
	t := &Table{Header: header}

	for _, w := range ws {
		for _, indexed := range []bool{false, true} {
			// The paper runs CSDA and CSPA indexed-only "due to the large
			// runtime" (§VI-B / Table I).
			if !indexed && (w.Name == "CSDA" || w.Name == s.Sizes.CSPAName) {
				continue
			}
			s.progress("fig: %s indexed=%v", w.Name, indexed)
			baseForm := inputForm
			if w.SingleForm {
				baseForm = analysis.HandOptimized
			}
			base := Measure(s.runner(w.Name, func() *analysis.Built { return w.Build(baseForm) },
				core.Options{Indexed: indexed}), s.Opts)
			row := []string{w.Name, fmt.Sprint(indexed)}
			if withHandOpt {
				hand := Measure(s.runner(w.Name, func() *analysis.Built { return w.Build(analysis.HandOptimized) },
					core.Options{Indexed: indexed}), s.Opts)
				row = append(row, FormatSpeedup(Speedup(base, hand)))
			}
			for _, jc := range JITConfigs() {
				form := baseForm
				m := Measure(s.runner(w.Name+"/"+jc.Name, func() *analysis.Built { return w.Build(form) },
					core.Options{Indexed: indexed, JIT: jc.Cfg}), s.Opts)
				row = append(row, FormatSpeedup(Speedup(base, m)))
			}
			t.Add(row...)
		}
	}
	return t
}

// Fig6 reproduces Figure 6: macrobenchmark speedups over the unoptimized
// interpreted input.
func (s *Suite) Fig6() *Table {
	var ws []Workload
	for _, w := range s.Macro() {
		if w.Name != "CSDA" { // Fig 6 shows Andersen, InvFuns, CSPA
			ws = append(ws, w)
		}
	}
	return s.speedupFigure(ws, analysis.Unoptimized, true)
}

// Fig7 reproduces Figure 7: microbenchmark speedups over unoptimized.
func (s *Suite) Fig7() *Table {
	return s.speedupFigure(s.Micro(), analysis.Unoptimized, true)
}

// Fig8 reproduces Figure 8: macrobenchmarks (incl. CSDA) JIT-optimized
// starting from the hand-optimized inputs, relative to hand-optimized
// interpretation.
func (s *Suite) Fig8() *Table {
	return s.speedupFigure(s.Macro(), analysis.HandOptimized, false)
}

// Fig9 reproduces Figure 9: microbenchmarks vs hand-optimized.
func (s *Suite) Fig9() *Table {
	return s.speedupFigure(s.Micro(), analysis.HandOptimized, false)
}

// Fig10 reproduces Figure 10: ahead-of-time ("macro" staging) vs online
// optimization on the microbenchmarks, speedup over unoptimized
// interpretation. Configurations follow §VI-C.
func (s *Suite) Fig10() *Table {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"JIT-lambda", core.Options{JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}},
		{"Facts+rules macro (online)", core.Options{AOT: core.AOTFactsAndRules, JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}},
		{"Rules macro (online)", core.Options{AOT: core.AOTRulesOnly, JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}},
		{"Facts+rules macro", core.Options{AOT: core.AOTFactsAndRules}},
		{"Rules macro", core.Options{AOT: core.AOTRulesOnly}},
	}
	header := []string{"Benchmark"}
	for _, c := range configs {
		header = append(header, c.name)
	}
	t := &Table{Header: header}
	for _, w := range s.Micro() {
		s.progress("fig10: %s", w.Name)
		base := Measure(s.runner(w.Name, func() *analysis.Built { return w.Build(analysis.Unoptimized) },
			core.Options{}), s.Opts)
		row := []string{w.Name}
		for _, c := range configs {
			opts := c.opts
			m := Measure(s.runner(w.Name+"/"+c.name, func() *analysis.Built { return w.Build(analysis.Unoptimized) },
				opts), s.Opts)
			row = append(row, FormatSpeedup(Speedup(base, m)))
		}
		t.Add(row...)
	}
	return t
}

// Table2 reproduces Table II: DLX, Soufflé (interpreter/compiler/
// auto-tuned), and Carac JIT on InvFuns, CSDA, CSPA. Carac runs the
// hand-written queries in full mode, synchronously, at σπ⋈ granularity
// (paper §VI-D); the Soufflé compiled modes include the simulated external
// compile latency.
func (s *Suite) Table2(cxxLatency time.Duration) *Table {
	t := &Table{Header: []string{"Benchmark", "DLX", "Souffle-Interp", "Souffle-Compile", "Souffle-AutoTuned", "Carac-JIT"}}
	var table2 []Workload
	for _, w := range s.Macro() {
		if w.Name == "Andersen" {
			continue
		}
		table2 = append(table2, w)
	}
	for _, w := range table2 {
		s.progress("table2: %s", w.Name)
		row := []string{w.Name}
		form := analysis.HandOptimized

		engCell := func(run func(b *analysis.Built) (*engines.Report, error)) string {
			var meas Measurement
			meas = Measure(Runner{Name: w.Name, Build: func() (Run, error) {
				b := w.Build(form)
				return func() (time.Duration, error) {
					rep, err := run(b)
					if err != nil {
						return 0, err
					}
					if rep.DNF {
						return 0, interp.ErrCancelled
					}
					return rep.Duration, nil
				}, nil
			}}, s.Opts)
			return Cell(meas)
		}
		row = append(row, engCell(func(b *analysis.Built) (*engines.Report, error) {
			return engines.RunDLX(b, s.Opts.Timeout)
		}))
		for _, mode := range []engines.SouffleMode{engines.SouffleInterp, engines.SouffleCompile, engines.SouffleAutoTune} {
			mode := mode
			row = append(row, engCell(func(b *analysis.Built) (*engines.Report, error) {
				return engines.RunSouffle(b, mode, cxxLatency, s.Opts.Timeout)
			}))
		}
		m := Measure(s.runner(w.Name+"/carac", func() *analysis.Built { return w.Build(form) },
			core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}), s.Opts)
		row = append(row, Cell(m))
		t.Add(row...)
	}
	return t
}

// Fig5 reproduces Figure 5: code-generation time per granularity for the
// staged (quotes) target, full vs snippet, warm vs cold, plus the cheaper
// targets for context. Times are compile-only (no execution).
func (s *Suite) Fig5() *Table {
	b := analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(s.Sizes.CSPA/2+100, s.Sizes.Seed))
	root, err := ir.Lower(b.P.AST())
	if err != nil {
		panic(err)
	}
	cat := b.P.Catalog()

	// Representative node per granularity.
	nodes := map[string]ir.Op{}
	ir.Walk(root, func(o ir.Op) {
		switch o.Kind() {
		case ir.KProgram, ir.KDoWhile, ir.KUnionAll, ir.KUnionRule, ir.KSPJ, ir.KScan, ir.KSwapClear:
			key := o.Kind().String()
			if _, seen := nodes[key]; !seen {
				nodes[key] = o
			}
		}
	})
	order := []string{"ProgramOp", "DoWhileOp", "UnionOp*", "UnionOp", "SPJ", "ScanOp", "SwapClearOp"}

	timeCompile := func(f func() error) time.Duration {
		reps := s.Opts.Reps
		if reps < 3 {
			reps = 3
		}
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0
			}
			if dt := time.Since(t0); dt < best {
				best = dt
			}
		}
		return best
	}

	t := &Table{Header: []string{"Granularity", "Quotes cold/full", "Quotes warm/full", "Quotes cold/snip", "Quotes warm/snip", "Bytecode", "Lambda"}}
	warm := quotes.NewCompiler()
	if _, err := warm.Compile(root, cat, false); err != nil {
		panic(err)
	}
	for _, name := range order {
		op, ok := nodes[name]
		if !ok {
			continue
		}
		s.progress("fig5: %s", name)
		row := []string{name}
		for _, variant := range []struct {
			cold    bool
			snippet bool
		}{{true, false}, {false, false}, {true, true}, {false, true}} {
			v := variant
			dt := timeCompile(func() error {
				c := warm
				if v.cold {
					c = quotes.NewCompiler()
				}
				_, err := c.Compile(op, cat, v.snippet)
				return err
			})
			row = append(row, dt.String())
		}
		dtB := timeCompile(func() error {
			_, err := (bytecode.Compiler{}).Compile(op, cat, false)
			return err
		})
		row = append(row, dtB.String())
		dtL := timeCompile(func() error {
			_, err := (lambda.Compiler{}).Compile(op, cat, false)
			return err
		})
		row = append(row, dtL.String())
		t.Add(row...)
	}
	return t
}

// Ablation runs the design-choice sweeps: sort vs greedy ordering,
// freshness-threshold sweep, and the granularity ladder, all on the
// unoptimized CSPA workload.
func (s *Suite) Ablation() *Table {
	facts := datagen.CSPAGraph(s.Sizes.CSPA, s.Sizes.Seed)
	build := func() *analysis.Built { return analysis.CSPA(analysis.Unoptimized, facts) }
	t := &Table{Header: []string{"Variant", "Time(s)", "Note"}}

	base := Measure(s.runner("interp", build, core.Options{Indexed: true}), s.Opts)
	t.Add("interpreted unoptimized", Cell(base), "baseline")

	sortOpt := Measure(s.runner("sort", build, core.Options{Indexed: true,
		JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}), s.Opts)
	t.Add("irgen + sort ordering", Cell(sortOpt), "paper algorithm")

	greedy := Measure(s.runner("greedy", build, core.Options{Indexed: true,
		JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ,
			Optimizer: optimizer.Options{Algo: optimizer.AlgoGreedy, Selectivity: 0.5}}}), s.Opts)
	t.Add("irgen + greedy ordering", Cell(greedy), "bound-aware ablation")

	for _, th := range []float64{0.01, 0.5, 4} {
		th := th
		m := Measure(s.runner(fmt.Sprintf("fresh-%v", th), build, core.Options{Indexed: true,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll, FreshnessThreshold: th}}), s.Opts)
		t.Add(fmt.Sprintf("lambda freshness=%v", th), Cell(m), "recompile gate")
	}

	for _, g := range []jit.Granularity{jit.GranProgram, jit.GranDoWhile, jit.GranUnionAll, jit.GranUnionRule, jit.GranSPJ} {
		g := g
		m := Measure(s.runner("gran", build, core.Options{Indexed: true,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: g}}), s.Opts)
		t.Add(fmt.Sprintf("lambda granularity=%v", g), Cell(m), "ladder")
	}

	distinct := Measure(s.runner("distinct", build, core.Options{Indexed: true,
		JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ,
			Optimizer: optimizer.Options{UseDistinctStats: true, Selectivity: 0.5}}}), s.Opts)
	t.Add("irgen + distinct-count stats", Cell(distinct), "vs constant selectivity")

	composite := Measure(s.runner("composite", build, core.Options{Indexed: true, CompositeIndexes: true,
		JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}), s.Opts)
	t.Add("irgen + composite indexes", Cell(composite), "auto-index selection")

	par := Measure(s.runner("parallel", build, core.Options{Indexed: true, ParallelUnions: true}), s.Opts)
	t.Add("interp + parallel unions", Cell(par), "Union* fan-out")
	return t
}
