package core

import (
	"time"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/optimizer"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// execEngine is one assembled execution context over a catalog: registered
// access artifacts, AOT-staged IR, an optional JIT controller, and a
// configured interpreter. Program.Run builds a fresh engine per call over
// the Program's own catalog; serving sessions build one engine per session
// over their private epoch-seeded catalog and reuse it across queries — the
// compiled units it produces are catalog-independent (resolved through the
// interpreter's catalog at invocation time), so both shapes share one
// Program-lifetime store of units.
type execEngine struct {
	cat   *storage.Catalog
	root  *ir.ProgramOp
	opts  Options
	store *plancache.Store
	ctrl  *jit.Controller
	in    *interp.Interp
}

// registerArtifacts applies the permanent per-relation registrations opts
// asks for to cat — hash indexes, composite indexes, histograms. An index is
// registered for each use (ir.IndexUses) of the lowered roots the catalog's
// plans are built from, on the relations its atom's source reads: one index
// a join column, plus one over all of them under CompositeIndexes. A
// predicate's Derived thus indexes only what an atom reading Full or Old
// probes, and its delta pair only what an atom reading δ probes.
func registerArtifacts(cat *storage.Catalog, prog *ast.Program, uses []ir.IndexUse, opts Options) {
	if opts.Indexed {
		for _, u := range uses {
			pd, role := cat.Pred(u.Pred), u.Src.Role()
			for i := range u.Cols {
				pd.RegisterIndex(role, u.Cols[i:i+1])
			}
			if opts.CompositeIndexes && len(u.Cols) > 1 {
				pd.RegisterIndex(role, u.Cols)
			}
		}
	}
	// Histogram registration is permanent like index registration: the
	// columns every lowering joins on, on Derived and the delta pair alike.
	if opts.Histograms {
		for pid, cols := range ir.JoinKeyColumns(prog) {
			cat.Pred(pid).BuildHistograms(cols)
		}
	}
}

// newExecEngine assembles an engine over cat for the lowered program root,
// first registering uses: root's, and those of any other lowering whose
// plans run on cat (registerArtifacts). store is the Program's unit store
// (nil for a per-run unit cache); aotSrc is the statistics source
// AOTFactsAndRules orders against — the live catalog for Run, the pinned
// epoch's snapshot for serving sessions, so session plans are staged against
// boundary-consistent statistics.
func newExecEngine(cat *storage.Catalog, prog *ast.Program, root *ir.ProgramOp, uses []ir.IndexUse, opts Options, store *plancache.Store, aotSrc stats.Source) (*execEngine, error) {
	registerArtifacts(cat, prog, uses, opts)

	// Ahead-of-time ("macro") staging: freeze initial orders before timing.
	if opts.AOT != AOTNone || opts.AOTStats != nil {
		var src stats.Source = stats.Unit{}
		if opts.AOT == AOTFactsAndRules {
			src = aotSrc
		}
		if opts.AOTStats != nil {
			src = opts.AOTStats
		}
		var aotErr error
		ir.Walk(root, func(o ir.Op) {
			if spj, ok := o.(*ir.SPJOp); ok {
				if _, rerr := optimizer.Reorder(spj, src, opts.JIT.Optimizer); rerr != nil && aotErr == nil {
					aotErr = rerr
				}
			}
		})
		if aotErr != nil {
			return nil, aotErr
		}
	}

	var ctrl *jit.Controller
	var ictrl interp.Controller
	if opts.JIT.Backend != jit.BackendOff {
		if store != nil {
			ctrl = jit.NewShared(cat, root, opts.JIT, store)
		} else {
			ctrl = jit.New(cat, root, opts.JIT)
		}
		ictrl = ctrl
	}
	in := interp.New(cat, ictrl)
	in.Parallel = opts.ParallelUnions
	in.Workers = opts.Workers
	in.FanoutThreshold = opts.FanoutThreshold
	live := stats.Catalog{Cat: cat}
	oopts := opts.JIT.Optimizer
	in.Reorder = func(spj *ir.SPJOp) error {
		_, err := optimizer.Reorder(spj, live, oopts)
		return err
	}
	if opts.Histograms {
		in.Estimate = func(spj *ir.SPJOp) float64 {
			return optimizer.EstimateRows(spj, live, oopts)
		}
	}
	shards := opts.Shards
	if opts.AdaptiveFanout && shards <= 1 {
		shards = 8
	}
	if shards > 1 {
		// Each rule of a pooled iteration fans out as up to shards tasks,
		// each reading a morsel of the rule's flat δ; with a JIT attached
		// the tasks run morsel-parameterized compiled units, so the pool
		// and compilation compose.
		in.Parallel = true
		in.Shards = shards
	}
	return &execEngine{cat: cat, root: root, opts: opts, store: store, ctrl: ctrl, in: in}, nil
}

// arm clears a stale cancellation (sessions reuse one interpreter, and a
// timed-out query must not poison the next) and starts the deadline for
// whatever the caller runs on the engine until it calls disarm: a query, or
// the whole of an Apply — retraction included. timeout <= 0 sets no deadline.
func (e *execEngine) arm(timeout time.Duration) (disarm func()) {
	e.in.ResetCancel()
	if timeout <= 0 {
		return func() {}
	}
	timer := time.AfterFunc(timeout, e.in.Cancel)
	return func() { timer.Stop() }
}

// query runs the engine's program to fixpoint once and assembles the
// Result, holding the scratch pools' free slabs for its duration
// (storage.HoldScratch). oneShot marks a Run-owned engine: its controller is
// closed before the JIT statistics are read, so asynchronous compiles finish
// counting.
// Session-owned engines keep the controller alive across queries and report
// the per-query delta of its counters instead.
//
// Under SharedPlans the Units delta subtracts the store's counters at query
// start; with concurrent sessions active the window may include
// neighbors' store activity (the counters are store-cumulative and
// monotone), so per-query attribution is approximate there — exact totals
// live on the store's ClassStats.
func (e *execEngine) query(oneShot bool) (*Result, error) {
	defer storage.HoldScratch()()
	var unitBase plancache.Stats
	if e.store != nil {
		unitBase = e.store.ClassStats(plancache.ClassUnits)
	}
	var jitBase jit.Stats
	if e.ctrl != nil && !oneShot {
		jitBase = e.ctrl.Stats()
	}
	t0 := time.Now()
	if err := e.in.Run(e.root); err != nil {
		return nil, err
	}
	dt := time.Since(t0)

	res := &Result{
		Duration:   dt,
		Interp:     e.in.TakeStats(),
		TotalFacts: e.cat.TotalDerived(),
	}
	if e.ctrl != nil {
		if oneShot {
			e.ctrl.Close()
			res.JIT = e.ctrl.Stats()
		} else {
			res.JIT = subJIT(e.ctrl.Stats(), jitBase)
		}
		if e.store != nil {
			res.Units = e.store.ClassStats(plancache.ClassUnits).Sub(unitBase)
		} else {
			res.Units = e.ctrl.UnitStats()
		}
	}
	return res, nil
}

// setSeedDelta installs (fn non-nil) or clears the interpreter's warm-start
// delta seeding hook for the engine's next query: with it set, each ScanOp
// asks fn for the rows that must re-enter semi-naive evaluation instead of
// pushing the whole pre-seeded Derived database through the first iteration.
// The serving layer pairs it with an ir.LowerWarm root when materializing an
// epoch from the previous epoch's fixpoint.
func (e *execEngine) setSeedDelta(fn func(storage.PredID, func([]storage.Value)) bool) {
	e.in.SeedDelta = fn
}

// close releases the engine's controller (idempotent).
func (e *execEngine) close() {
	if e.ctrl != nil {
		e.ctrl.Close()
	}
}

// subJIT returns the field-wise difference a - b of two JIT counter
// snapshots (the per-query window of a session-lived controller).
func subJIT(a, b jit.Stats) jit.Stats {
	return jit.Stats{
		Compilations: a.Compilations - b.Compilations,
		CompileTime:  a.CompileTime - b.CompileTime,
		CacheHits:    a.CacheHits - b.CacheHits,
		StaleDrops:   a.StaleDrops - b.StaleDrops,
		Reorders:     a.Reorders - b.Reorders,
		Switchovers:  a.Switchovers - b.Switchovers,
		Failures:     a.Failures - b.Failures,
	}
}
