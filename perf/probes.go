package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"carac/internal/analysis"
	"carac/internal/ast"
	"carac/internal/core"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/jit/bytecode"
	"carac/internal/jit/lambda"
	"carac/internal/jit/quotes"
	"carac/internal/optimizer"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Layer probes: the benchmark calls one layer's public functions on data a
// workload's program produced and times the call. Each probe runs in the
// traced run of the one workload whose ops lean on that layer (README.md's
// "should move" column), over that workload's inputs; in the other workloads'
// runs its metric reads 0.

type prober struct {
	cfg   *config
	tr    *tracer
	roots map[string]int
	out   map[string]float64
}

// runProbes runs w's probes and returns their metrics by per-layer name.
func runProbes(cfg *config, tr *tracer, w workload) (map[string]float64, error) {
	pb := &prober{cfg: cfg, tr: tr, roots: map[string]int{}, out: map[string]float64{}}
	err := w.probes(pb)
	for _, root := range pb.roots {
		tr.finish(root, "", nil)
	}
	return pb.out, err
}

// best runs body reps times under one span of the layer's probe root, each
// time after an untimed prep, and returns the fastest repetition: the one
// least touched by the host.
func (pb *prober) best(name string, reps int, prep, body func()) time.Duration {
	layer, _, _ := strings.Cut(name, ".")
	root, ok := pb.roots[layer]
	if !ok {
		root = pb.tr.root("probe/" + layer)
		pb.roots[layer] = root
	}
	fastest := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		sp := pb.tr.start(root, name)
		t0 := time.Now()
		body()
		fastest = min(fastest, time.Since(t0))
		pb.tr.finish(sp, "", nil)
	}
	return fastest
}

// passes are the rule-set passes of the front end, by probe name.
var passes = map[string]func(*ast.Program) error{
	"ast.stratify":     func(p *ast.Program) error { _, err := p.Stratify(); return err },
	"ir.lower":         func(p *ast.Program) error { _, err := ir.Lower(p); return err },
	"ir.lower_warm":    func(p *ast.Program) error { _, err := ir.LowerWarm(p); return err },
	"ir.lower_retract": func(p *ast.Program) error { _, err := ir.LowerRetract(p); return err },
}

// pass times one front-end pass over prog's rule set.
func (pb *prober) pass(name string, prog *ast.Program) error {
	var err error
	pb.out[name+"_us"] = us(pb.best(name, 20, nil, func() {
		if e := passes[name](prog); e != nil {
			err = e
		}
	}))
	return err
}

func spjsOf(root ir.Op) []*ir.SPJOp {
	var out []*ir.SPJOp
	ir.Walk(root, func(o ir.Op) {
		if s, ok := o.(*ir.SPJOp); ok {
			out = append(out, s)
		}
	})
	return out
}

// midRun makes a fixpoint catalog look like the middle of a run to planners
// and optimizers: every delta relation holds its predicate's derived rows
// instead of being empty.
func midRun(cat *storage.Catalog) {
	for _, pd := range cat.Preds() {
		pd.DeltaKnown.InsertAll(pd.Derived)
	}
}

// cspaFixpoint runs CSPA under E and returns it with a freshly lowered IR
// tree and mid-run deltas.
func cspaFixpoint(form analysis.Formulation, in *cspaInput) (*analysis.Built, *ir.ProgramOp, error) {
	b := buildCSPA(form, in, nil)
	if _, err := b.P.Run(engineOpts()); err != nil {
		return nil, nil, err
	}
	root, err := ir.Lower(b.P.AST())
	if err != nil {
		return nil, nil, err
	}
	midRun(b.P.Catalog())
	return b, root, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// tc_large: storage insert, duplicate rejection, index probe and footprint
// over the closure in derivation order, indexed on tc's join column; the same
// inserts through the physically sharded layout; the execution of the
// recursive subquery over it; and the parse of the input as source text.
func (w *tcLarge) probes(pb *prober) error {
	b := buildTC(w.in, nil)
	if _, err := b.P.Run(engineOpts()); err != nil {
		return err
	}
	cat := b.P.Catalog()
	tc, _ := cat.PredByName("tc")
	const joinCol = 1 // tc(x,z), edge(z,y)
	var rows []storage.Value
	tc.Derived.Each(func(t []storage.Value) bool {
		rows = append(rows, t...)
		return true
	})
	n := len(rows) / 2
	perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

	var rel *storage.Relation
	fresh := func() {
		rel = storage.NewRelation("probe", 2)
		rel.BuildIndex(joinCol)
	}
	insertAll := func() {
		for i := 0; i < len(rows); i += 2 {
			rel.Insert(rows[i : i+2])
		}
	}
	pb.out["storage.insert_ns"] = perRow(pb.best("storage.insert", 3, fresh, insertAll))
	pb.out["storage.dedup_ns"] = perRow(pb.best("storage.dedup", 3, nil, insertAll))
	pb.out["storage.probe_ns"] = perRow(pb.best("storage.probe", 3, nil, func() {
		for i := 0; i < len(rows); i += 2 {
			rel.Probe(joinCol, rows[i+joinCol])
		}
	}))

	rel = nil
	before := heapAlloc()
	fresh()
	insertAll()
	pb.out["storage.bytes_per_row"] = float64(heapAlloc()-before) / float64(n)
	runtime.KeepAlive(rel)

	var sharded *storage.PredicateDB
	pb.out["storage.shard_insert_ns"] = perRow(pb.best("storage.shard_insert", 3, func() {
		c := storage.NewCatalog()
		sharded = c.Pred(c.Declare("probe", 2))
		sharded.BuildIndexes([]int{joinCol})
		sharded.SetShardsPhysical(8, joinCol)
	}, func() {
		for i := 0; i < len(rows); i += 2 {
			sharded.DeltaNew.Insert(rows[i : i+2])
		}
	}))

	// Every closure row is in exactly one iteration's delta, so running the
	// recursive subquery once with the whole closure as its delta emits what
	// the whole fixpoint emitted.
	root, err := ir.Lower(b.P.AST())
	if err != nil {
		return err
	}
	midRun(cat)
	var recursive *ir.SPJOp
	for _, spj := range spjsOf(root) {
		if spj.DeltaIdx >= 0 && len(spj.Atoms) == 2 {
			recursive = spj
		}
	}
	if recursive == nil {
		return fmt.Errorf("probe: transitive closure has no recursive subquery")
	}
	plan, err := interp.BuildPlan(recursive, cat)
	if err != nil {
		return err
	}
	emitted := 0
	d := pb.best("interp.execute", 3, func() { emitted = 0 }, func() {
		plan.Execute(cat, func(_, _ []storage.Value) { emitted++ })
	})
	edge, _ := cat.PredByName("edge")
	pb.out["interp.execute_ns_per_row"] = float64(d.Nanoseconds()) / float64(emitted)
	pb.out["interp.useful_ratio"] = float64(n-edge.Derived.Len()) / float64(emitted)

	var src strings.Builder
	src.WriteString(".decl edge(x:number, y:number)\n.decl tc(x:number, y:number)\n")
	for _, t := range w.in.edges {
		fmt.Fprintf(&src, "edge(%d,%d).\n", t[0], t[1])
	}
	src.WriteString("tc(x,y) :- edge(x,y).\ntc(x,y) :- tc(x,z), edge(z,y).\n")
	text := src.String()
	pb.out["parser.parse_ms"] = ms(pb.best("parser.parse", 10, nil, func() {
		if e := core.NewProgram().LoadSource(text); e != nil {
			err = e
		}
	}))
	return err
}

// cspa_order: join reordering and access-plan construction for every
// subquery of the adversarial formulation against mid-run statistics; one
// compilation per backend of every unit E compiles (the per-relation union
// nodes); and stratifying and lowering the rule set.
func (w *cspaOrder) probes(pb *prober) error {
	b, root, err := cspaFixpoint(analysis.Unoptimized, w.in)
	if err != nil {
		return err
	}
	cat := b.P.Catalog()
	spjs := spjsOf(root)
	per := func(d time.Duration) float64 { return us(d) / float64(len(spjs)) }
	clones := make([]*ir.SPJOp, len(spjs))
	pb.out["optimizer.reorder_us"] = per(pb.best("optimizer.reorder", 20, func() {
		for i, s := range spjs {
			clones[i] = ir.CloneSPJ(s)
		}
	}, func() {
		for _, s := range clones {
			if _, e := optimizer.Reorder(s, stats.Catalog{Cat: cat}, engineOpts().JIT.Optimizer); e != nil {
				err = e
			}
		}
	}))
	if err != nil {
		return err
	}
	pb.out["interp.build_plan_us"] = per(pb.best("interp.build_plan", 20, nil, func() {
		for _, s := range clones { // the reordered subqueries
			if _, e := interp.BuildPlan(s, cat); e != nil {
				err = e
			}
		}
	}))
	if err != nil {
		return err
	}

	var units []ir.Op
	ir.Walk(root, func(o ir.Op) {
		if o.Kind() == engineOpts().JIT.Granularity.OpKind() {
			units = append(units, o)
		}
	})
	type compiler interface {
		Name() string
		Compile(op ir.Op, cat *storage.Catalog, snippet bool) (func(*interp.Interp) error, error)
	}
	for _, c := range []compiler{lambda.Compiler{}, bytecode.Compiler{}, quotes.NewCompiler()} {
		unitClones := make([]ir.Op, len(units))
		d := pb.best("jit.compile."+c.Name(), 10, func() {
			for i, u := range units {
				unitClones[i] = ir.CloneSubtree(u)
			}
		}, func() {
			for _, u := range unitClones {
				if _, e := c.Compile(u, cat, false); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return fmt.Errorf("probe: %s: %w", c.Name(), err)
		}
		pb.out["jit.compile_us."+c.Name()] = us(d) / float64(len(units))
	}

	if err := pb.pass("ast.stratify", b.P.AST()); err != nil {
		return err
	}
	return pb.pass("ir.lower", b.P.AST())
}

// serve_mixed: epoch pin and copy-on-flip over the fixpoint and the
// statistics snapshot every Publish takes; the plan store's lookup and store
// paths keyed by the program's subqueries, and a flush and load of the store
// a shared-plans run fills, through the same codecs core wires up for
// Options.CacheDir; and the warm-start lowering.
func (w *serveMixed) probes(pb *prober) error {
	var ground []int // rows per predicate before the fixpoint
	for _, pd := range buildCSPA(analysis.HandOptimized, w.in, nil).P.Catalog().Preds() {
		ground = append(ground, pd.Derived.Len())
	}
	var b *analysis.Built
	var root *ir.ProgramOp
	var err error
	fixpoint := func() { b, root, err = cspaFixpoint(analysis.HandOptimized, w.in) }
	pin := func() {
		for _, pd := range b.P.Catalog().Preds() {
			pd.Derived.PinRows()
		}
	}
	// The flip is the first destructive rewrite of a pinned arena: the rewind
	// to the ground facts that a publication after a direct Run performs.
	pb.out["storage.flip_ms"] = ms(pb.best("storage.flip", 3, func() { fixpoint(); pin() }, func() {
		for i, pd := range b.P.Catalog().Preds() {
			pd.Derived.TruncateTo(ground[i])
		}
	}))
	fixpoint()
	if err != nil {
		return err
	}
	cat := b.P.Catalog()
	pb.out["stats.snapshot_us"] = us(pb.best("stats.snapshot", 10, nil, func() { stats.CaptureSnapshot(cat) }))
	pb.out["storage.pin_us"] = us(pb.best("storage.pin", 10, nil, pin))

	type entry struct {
		key      plancache.Key
		counters []uint64
		cards    []int
	}
	var entries []entry
	for _, s := range spjsOf(root) {
		entries = append(entries, entry{plancache.KeyFor(s), stats.CounterVector(s, cat), stats.CardVector(s, stats.Catalog{Cat: cat})})
	}
	const lookups = 200
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(lookups*len(entries)) }
	view := plancache.New[int](plancache.Policy{})
	pb.out["plancache.store_ns"] = per(pb.best("plancache.store", 5, nil, func() {
		for r := 0; r < lookups; r++ {
			for i, e := range entries {
				view.Store(e.key, e.counters, e.cards, i)
			}
		}
	}))
	pb.out["plancache.lookup_ns"] = per(pb.best("plancache.lookup", 5, nil, func() {
		for r := 0; r < lookups; r++ {
			for _, e := range entries {
				view.Lookup(e.key, e.counters, e.cards)
			}
		}
	}))

	shared := engineOpts()
	shared.SharedPlans = true
	if _, err := b.P.Run(shared); err != nil {
		return err
	}
	store := b.P.PlanStore()
	dir, err := os.MkdirTemp(pb.cfg.tmpDir, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	codecs := map[plancache.Class]plancache.EntryCodec{
		plancache.ClassUnits: jit.UnitCodec(),
		plancache.ClassPlans: {
			Encode: func(v any) ([]byte, bool) {
				pl, ok := v.(*interp.Plan)
				if !ok {
					return nil, false
				}
				return interp.AppendPlan(nil, pl), true
			},
			Decode: func(payload []byte) (any, error) {
				pl, _, err := interp.DecodePlan(payload)
				if err != nil {
					return nil, err
				}
				interp.RevalidatePlan(pl, cat)
				return pl, nil
			},
		},
	}
	snap := stats.CaptureSnapshot(cat)
	pb.out["plancache.flush_ms"] = ms(pb.best("plancache.flush", 5, nil, func() {
		if e := plancache.NewPersister(dir, "perf-probe", codecs).Flush(store, snap); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	var loader *plancache.Persister
	pb.out["plancache.load_ms"] = ms(pb.best("plancache.load", 5, func() {
		loader = plancache.NewPersister(dir, "perf-probe", codecs)
	}, func() { loader.Load(plancache.NewStore(0)) }))
	pb.out["plancache.disk_hits"] = float64(loader.Stats().Hits)
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if fi, err := f.Info(); err == nil {
			pb.out["plancache.disk_bytes"] += float64(fi.Size())
		}
	}
	return pb.pass("ir.lower_warm", b.P.AST())
}

// stream_churn: the batched row removal and the ground splice Apply
// performs, over the rows the batch's over-delete dooms (everything reached
// from a churn edge's source), and the retraction lowering.
func (w *streamChurn) probes(pb *prober) error {
	b := buildTC(w.in, w.in.churn)
	if _, err := b.P.Run(engineOpts()); err != nil {
		return err
	}
	tc, _ := b.P.Catalog().PredByName("tc")
	edge, _ := b.P.Catalog().PredByName("edge")
	srcs := map[storage.Value]bool{}
	for _, t := range w.in.churn {
		srcs[t[0]] = true
	}
	var doomed [][]storage.Value
	tc.Derived.Each(func(t []storage.Value) bool {
		if srcs[t[0]] {
			doomed = append(doomed, append([]storage.Value(nil), t...))
		}
		return true
	})
	restore := func() {
		for _, t := range doomed {
			tc.Derived.Insert(t)
		}
	}
	pb.out["storage.delete_rows_us"] = us(pb.best("storage.delete_rows", 5, restore, func() { tc.Derived.DeleteRows(doomed, 0) }))
	pb.out["storage.assert_at_us"] = us(pb.best("storage.assert_at", 5,
		func() { edge.Derived.DeleteRows(w.in.churn, edge.Derived.Len()) },
		func() { edge.Derived.AssertAt(w.in.churn, edge.Derived.Len()) }))
	return pb.pass("ir.lower_retract", b.P.AST())
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
