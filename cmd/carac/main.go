// Command carac runs a Datalog program from a .dl source file (optionally
// with external fact files) under any of Carac's execution configurations:
//
//	carac run prog.dl [-facts dir] [-backend off|lambda|irgen|bytecode|quotes]
//	    [-granularity program|dowhile|unionall|union|spj] [-async] [-snippet]
//	    [-indexed] [-naive] [-aot none|rules|facts] [-print rel1,rel2] [-stats]
//	    [-parallel] [-workers n] [-shards n]
//	    [-fanout-threshold n] [-shared-plans] [-repeat n] [-histograms]
//
// or drives a concurrent serving load against it — one warm run, then
// -clients snapshot-isolated sessions each issuing -queries fixpoint
// queries (optionally paced to -qps per client) over the shared unit store
// and worker pool:
//
//	carac serve prog.dl [-facts dir] [-clients n] [-queries n] [-qps r]
//	    [-backend off|lambda] [-granularity ...] [-workers n] [-shards n]
//	    [-histograms] [-timeout d] [-stats]
//
// Fact files are TSV: one tuple per line, tab-separated, named <relation>.facts
// inside -facts dir; numeric columns are integers, everything else is interned
// as a symbol.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"carac/internal/core"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/optimizer"
	pcache "carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "carac:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: carac <run|serve> <prog.dl> [flags]")
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:])
	case "serve":
		return serveCmd(args[1:])
	default:
		return fmt.Errorf("usage: carac <run|serve> <prog.dl> [flags]")
	}
}

// requirePositive rejects any of the named flags that was explicitly set on
// the command line to a zero or negative value. These flags default to 0 (or
// 1) meaning "auto" — workers → GOMAXPROCS, shards → off, qps → unpaced — so
// only an explicit setting is checked: `-workers 0` silently aliasing the
// default while reading as "no workers" is exactly the scripted-driver
// mistake this guards against.
func requirePositive(fs *flag.FlagSet, names ...string) error {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || !want[f.Name] {
			return
		}
		g, ok := f.Value.(flag.Getter)
		if !ok {
			return
		}
		bad := false
		switch v := g.Get().(type) {
		case int:
			bad = v <= 0
		case float64:
			bad = v <= 0
		}
		if bad {
			err = fmt.Errorf("-%s must be positive, got %s", f.Name, f.Value.String())
		}
	})
	return err
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("carac run", flag.ContinueOnError)
	factsDir := fs.String("facts", "", "directory of <relation>.facts TSV files")
	backend := fs.String("backend", "off", "JIT backend: off|lambda, or the paper fixtures irgen|bytecode|quotes (sequential runs only)")
	granularity := fs.String("granularity", "spj", "compilation granularity: program|dowhile|unionall|union|spj")
	async := fs.Bool("async", false, "compile asynchronously")
	snippet := fs.Bool("snippet", false, "snippet compilation (quotes/lambda)")
	indexed := fs.Bool("indexed", true, "build join/filter indexes")
	naive := fs.Bool("naive", false, "naive (non-semi-naive) evaluation")
	aot := fs.String("aot", "none", "ahead-of-time sort: none|rules|facts")
	printRels := fs.String("print", "", "comma-separated relations to print")
	stats := fs.Bool("stats", true, "print execution statistics")
	parallel := fs.Bool("parallel", false, "let every iteration with a large enough delta fan out on the worker pool (without it, only the iterations after one that matched 16 rows per delta row do)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; 1 runs every iteration sequentially)")
	shards := fs.Int("shards", 0, "split each rule of a pooled iteration into up to this many tasks, each reading a row range of its delta (implies -parallel)")
	fanoutThreshold := fs.Int("fanout-threshold", 0, "delta size below which an iteration of a parallel run (-parallel or -shards) runs sequentially (0 = default 256; 1 fans out every iteration)")
	histograms := fs.Bool("histograms", false, "maintain per-column histograms on join columns and order atoms by estimated join-output size (histogram overlap) instead of cardinality alone")
	sharedPlans := fs.Bool("shared-plans", false, "key the JIT's compiled-unit cache into the program-lifetime store so repeated runs start warm")
	repeat := fs.Int("repeat", 1, "run the program this many times on one Program (pair with -shared-plans and a -backend to observe warm-run behavior)")
	timeout := fs.Duration("timeout", 0, "abort after this duration")
	explain := fs.Bool("explain", false, "print the IROp plan (with optimizer weights) before running")

	p, err := loadProgram(fs, args, factsDir)
	if err != nil {
		return err
	}
	if err := requirePositive(fs, "repeat", "workers", "shards"); err != nil {
		return err
	}
	if *fanoutThreshold < 0 {
		return fmt.Errorf("-fanout-threshold must be >= 0 (0 = default), got %d", *fanoutThreshold)
	}

	be, err := jit.ParseBackend(*backend)
	if err != nil {
		return err
	}
	gr, err := jit.ParseGranularity(*granularity)
	if err != nil {
		return err
	}
	var aotStage core.AOTStage
	switch *aot {
	case "none", "":
		aotStage = core.AOTNone
	case "rules":
		aotStage = core.AOTRulesOnly
	case "facts":
		aotStage = core.AOTFactsAndRules
	default:
		return fmt.Errorf("unknown -aot %q", *aot)
	}

	opts := core.Options{
		Indexed:         *indexed,
		Naive:           *naive,
		AOT:             aotStage,
		Timeout:         *timeout,
		SharedPlans:     *sharedPlans,
		ParallelUnions:  *parallel,
		Workers:         *workers,
		Shards:          *shards,
		FanoutThreshold: *fanoutThreshold,
		Histograms:      *histograms,
		JIT: jit.Config{
			Backend:     be,
			Granularity: gr,
			Async:       *async,
			Snippet:     *snippet,
		},
	}
	if *explain {
		if err := explainPlan(p, *naive); err != nil {
			return err
		}
	}
	var res *core.Result
	var totalRecompiles int64
	for i := 0; i < *repeat; i++ {
		r, err := p.Run(opts)
		if err != nil {
			return err
		}
		res = r
		totalRecompiles += r.JIT.Compilations
		if *stats && *repeat > 1 {
			fmt.Fprintf(os.Stderr, "run %d/%d: time=%v plan-builds=%d unit-reuses=%d cross-run-hits=%d recompiles=%d\n",
				i+1, *repeat, r.Duration.Round(time.Microsecond), r.Interp.PlanBuilds,
				r.Units.Hits, r.Units.CrossRunHits, r.JIT.Compilations)
		}
	}

	if *printRels != "" {
		for _, name := range strings.Split(*printRels, ",") {
			name = strings.TrimSpace(name)
			pd, ok := p.Catalog().PredByName(name)
			if !ok {
				return fmt.Errorf("unknown relation %q", name)
			}
			rel := p.Relation(name, pd.Arity)
			rel.Each(func(t []storage.Value) bool {
				parts := make([]string, len(t))
				for i, v := range t {
					parts[i] = p.Format(v)
				}
				fmt.Println(name + "(" + strings.Join(parts, ", ") + ")")
				return true
			})
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "time: %v  facts: %d  iterations: %d  derivations: %d  matches: %d  subqueries: %d\n",
			res.Duration.Round(time.Microsecond), res.TotalFacts,
			res.Interp.Iterations, res.Interp.Derivations, res.Interp.Matches, res.Interp.SPJRuns)
		// What each predicate's Derived holds: an index appears only where a
		// plan reads it.
		for _, pd := range p.Catalog().Preds() {
			f := pd.Derived.Footprint()
			fmt.Fprintf(os.Stderr, "memory %s: rows=%d arena=%dB row-table=%dB indexes=%dB\n",
				pd.Name, pd.Derived.Len(), f.Arena, f.RowTable, f.Indexes)
		}
		// A Run with no parallel flag pools the iterations whose work pays
		// for it (core.Options.ParallelUnions): the line shows when one did.
		if *parallel || *shards > 1 || res.Interp.PooledIters > 0 {
			fmt.Fprintf(os.Stderr, "fanout: pooled-iterations=%d sequential-iterations=%d/%d workers-folded=%d\n",
				res.Interp.PooledIters, res.Interp.SeqIters, res.Interp.Iterations, res.Interp.MergeTasks)
		}
		if *histograms {
			fmt.Fprintf(os.Stderr, "histograms: estimated-rows=%d\n", res.Interp.EstimatedRows)
		}
		if be != jit.BackendOff {
			fmt.Fprintf(os.Stderr, "jit: compilations=%d compile-time=%v cache-hits=%d stale=%d reorders=%d switchovers=%d\n",
				res.JIT.Compilations, res.JIT.CompileTime.Round(time.Microsecond),
				res.JIT.CacheHits, res.JIT.StaleDrops, res.JIT.Reorders, res.JIT.Switchovers)
		}
		if *sharedPlans {
			// The store outlives runs, so its totals accumulate across every
			// -repeat iteration; misses fold cold+stale.
			units := p.PlanStore().ClassStats(pcache.ClassUnits)
			fmt.Fprintf(os.Stderr, "plan-store: unit-reuses=%d (cross-run=%d) misses=%d unit-recompiles=%d\n",
				units.Hits, units.CrossRunHits, units.ColdMisses+units.StaleDrops, totalRecompiles)
		}
	}
	return nil
}

// loadProgram extracts the .dl path from args, parses the remaining flags
// into fs (the -facts flag must already be registered there), and returns
// the loaded Program with its external facts inserted.
func loadProgram(fs *flag.FlagSet, args []string, factsDir *string) (*core.Program, error) {
	var file string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		file = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if file == "" {
		return nil, fmt.Errorf("usage: %s <prog.dl> [flags]", fs.Name())
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	p := core.NewProgram()
	if err := p.LoadSource(string(src)); err != nil {
		return nil, err
	}
	if *factsDir != "" {
		if err := loadFactsDir(p, *factsDir); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// serveCmd drives a concurrent serving load: one warm Run populates the
// program-lifetime unit store, Serve publishes the first epoch, and
// -clients sessions — each pinned to that epoch, all sharing the server's
// worker pool — issue -queries fixpoint queries concurrently, optionally
// paced to -qps queries per second per client.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("carac serve", flag.ContinueOnError)
	factsDir := fs.String("facts", "", "directory of <relation>.facts TSV files")
	backend := fs.String("backend", "off", "JIT backend: off|lambda")
	granularity := fs.String("granularity", "spj", "compilation granularity: program|dowhile|unionall|union|spj")
	indexed := fs.Bool("indexed", true, "build join/filter indexes")
	workers := fs.Int("workers", 0, "worker-pool size shared by all sessions (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "split each rule of a pooled iteration into up to this many tasks")
	histograms := fs.Bool("histograms", false, "histogram-driven atom ordering (frozen per epoch for sessions)")
	clients := fs.Int("clients", 4, "concurrent client sessions")
	queries := fs.Int("queries", 8, "queries per client")
	qps := fs.Float64("qps", 0, "per-client query rate (0 = maximum throughput)")
	materialize := fs.Bool("materialize", false, "materialize each epoch's fixpoint once; repeat queries answer by lookup")
	cacheDir := fs.String("cache-dir", "", "checkpoint directory (needs -materialize): each epoch fixpoint a query derives is written there, and a restarted server over the same program and facts adopts it instead of deriving its first epoch")
	repeat := fs.Float64("repeat", 1, "hot-query ratio per client in [0,1]: this fraction of queries repeat on the client's session, the rest open a fresh session each")
	timeout := fs.Duration("timeout", 0, "per-query timeout")
	statsFlag := fs.Bool("stats", true, "print serving statistics")

	p, err := loadProgram(fs, args, factsDir)
	if err != nil {
		return err
	}
	if *clients < 1 || *queries < 1 {
		return fmt.Errorf("-clients and -queries must be >= 1")
	}
	if err := requirePositive(fs, "clients", "queries", "qps", "workers", "shards"); err != nil {
		return err
	}
	// Serve's -repeat is a hot-query ratio, not a count: 0 (all fresh
	// sessions) is meaningful, above 1 is not.
	if *repeat < 0 || *repeat > 1 {
		return fmt.Errorf("-repeat must be in [0,1]")
	}
	be, err := jit.ParseBackend(*backend)
	if err != nil {
		return err
	}
	gr, err := jit.ParseGranularity(*granularity)
	if err != nil {
		return err
	}
	opts := core.Options{
		Indexed:     *indexed,
		SharedPlans: true,
		Materialize: *materialize,
		CacheDir:    *cacheDir,
		Workers:     *workers,
		Shards:      *shards,
		Histograms:  *histograms,
		Timeout:     *timeout,
		JIT:         jit.Config{Backend: be, Granularity: gr},
	}
	// Open the server first, so a setting Serve refuses is refused before
	// anything is derived; then a warm run, since serving is the steady
	// state the unit store exists for. Sessions read the epoch Serve
	// published, which the run leaves as it was.
	srv, err := p.Serve(opts)
	if err != nil {
		return err
	}
	opts.CacheDir = "" // Run refuses a checkpoint directory
	if _, err := p.Run(opts); err != nil {
		return err
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
		facts    = -1
	)
	interval := time.Duration(0)
	if *qps > 0 {
		interval = time.Duration(float64(time.Second) / *qps)
	}
	hot := int(*repeat*10 + 0.5)
	t0 := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := srv.Session()
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer sess.Close()
			next := time.Now()
			for q := 0; q < *queries; q++ {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				// Hot queries repeat on the persistent session; the rest
				// open a fresh session each, modeling distinct arrivals.
				qs := sess
				if q%10 >= hot {
					fresh, err := srv.Session()
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					qs = fresh
				}
				res, err := qs.Query()
				if qs != sess {
					qs.Close()
				}
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				case facts == -1:
					facts = res.TotalFacts
				case facts != res.TotalFacts:
					if firstErr == nil {
						firstErr = fmt.Errorf("sessions diverged: %d facts vs %d", res.TotalFacts, facts)
					}
					mu.Unlock()
					return
				}
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	dt := time.Since(t0)
	if firstErr != nil {
		return firstErr
	}
	if *statsFlag {
		qpsOut := 0.0
		if dt > 0 {
			qpsOut = float64(done) / dt.Seconds()
		}
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "serve: clients=%d queries=%d duration=%v qps=%.1f facts-per-query=%d cross-run-hits=%d memo-hits=%d materialized-epochs=%d (warm=%d cold-after-deletions=%d cold-no-previous=%d)\n",
			*clients, done, dt.Round(time.Microsecond), qpsOut, facts,
			srv.UnitStats().CrossRunHits,
			st.MemoHits, st.MaterializedEpochs, st.WarmStarts, st.ColdAfterDeletions, st.ColdNoPrevious)
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "checkpoint: restored=%d misses=%d last-miss=%q\n",
				st.Restored, st.RestoreMisses, st.RestoreMiss)
		}
	}
	return nil
}

// explainPlan prints the lowered IROp tree and, for every subquery, the
// optimizer's current weights under the loaded facts.
func explainPlan(p *core.Program, naive bool) error {
	var root *ir.ProgramOp
	var err error
	if naive {
		root, err = ir.LowerNaive(p.AST())
	} else {
		root, err = ir.Lower(p.AST())
	}
	if err != nil {
		return err
	}
	cat := p.Catalog()
	fmt.Println("-- plan --")
	fmt.Print(ir.Dump(root, cat))
	fmt.Println("-- subquery weights (live cardinalities) --")
	live := stats.Catalog{Cat: cat}
	opts := optimizer.DefaultOptions()
	ir.Walk(root, func(o ir.Op) {
		if spj, ok := o.(*ir.SPJOp); ok {
			fmt.Printf("rule %d: %s\n", spj.RuleIdx, optimizer.Explain(spj, cat, live, opts))
		}
	})
	fmt.Println("-- end plan --")
	return nil
}

// loadFactsDir reads every <relation>.facts TSV file in dir.
func loadFactsDir(p *core.Program, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".facts") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".facts")
		pd, ok := p.Catalog().PredByName(name)
		if !ok {
			return fmt.Errorf("fact file %s has no declared relation %q", e.Name(), name)
		}
		rel := p.Relation(name, pd.Arity)
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			cols := strings.Split(line, "\t")
			if len(cols) != pd.Arity {
				f.Close()
				return fmt.Errorf("%s:%d: %d columns for %s/%d", e.Name(), lineNo, len(cols), name, pd.Arity)
			}
			tuple := make([]storage.Value, len(cols))
			for i, c := range cols {
				if n, err := strconv.ParseInt(c, 10, 32); err == nil && n >= 0 {
					tuple[i] = storage.Value(n)
				} else {
					tuple[i] = p.Catalog().Symbols.Intern(c)
				}
			}
			rel.FactTuple(tuple)
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	return nil
}
