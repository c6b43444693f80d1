package main

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/jit"
	"carac/internal/storage"
)

// workloadNames is the order everything is run and printed in.
var workloadNames = []string{"cspa_order", "tc_large", "serve_mixed", "stream_churn"}

func newWorkload(name string) workload {
	switch name {
	case "cspa_order":
		return &cspaOrder{}
	case "tc_large":
		return &tcLarge{}
	case "serve_mixed":
		return &serveMixed{}
	case "stream_churn":
		return &streamChurn{}
	}
	return nil
}

// engineOpts is configuration E, the paper's best bar ("JIT Lambda
// Blocking"): hash indexes on every join column, the lambda backend compiling
// per relation per iteration, blocking compilation. Batch workloads do not
// share plans across Runs, so every Run pays its own planning and
// compilation, as the paper's timings do.
func engineOpts() core.Options {
	return core.Options{
		Indexed: true,
		Timeout: 60 * time.Second,
		JIT:     jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll},
	}
}

// expect returns the workload's expected states: the committed ones when
// they match cfg's inputs, else the oracle's over the given builds.
func expect(cfg *config, w string, builds map[string]func() *analysis.Built) (map[string]relState, error) {
	if !cfg.fresh {
		if states := loadExpected(cfg, w); states != nil {
			return states, nil
		}
	}
	states := map[string]relState{}
	for _, state := range slices.Sorted(maps.Keys(builds)) {
		st, err := oracle(builds[state]())
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w, state, err)
		}
		states[state] = st
	}
	return states, nil
}

// runCounts flattens one Result into per-layer counter names.
func runCounts(r *core.Result) map[string]float64 {
	// Plan-class and unit-class traffic are one layer's activity.
	pl, un := r.Plans, r.Units
	return map[string]float64{
		"interp.iterations":       float64(r.Interp.Iterations),
		"interp.spj_runs":         float64(r.Interp.SPJRuns),
		"interp.derivations":      float64(r.Interp.Derivations),
		"interp.plan_builds":      float64(r.Interp.PlanBuilds),
		"interp.plan_reuses":      float64(r.Interp.PlanReuses),
		"interp.merge_tasks":      float64(r.Interp.MergeTasks),
		"interp.seq_iters":        float64(r.Interp.SeqIters),
		"interp.retracted":        float64(r.Interp.Retracted),
		"interp.rederived":        float64(r.Interp.Rederived),
		"optimizer.reorders":      float64(r.JIT.Reorders + r.Interp.Reopts),
		"jit.compilations":        float64(r.JIT.Compilations),
		"jit.compile_ms_total":    float64(r.JIT.CompileTime) / 1e6,
		"jit.cache_hits":          float64(r.JIT.CacheHits),
		"jit.stale_drops":         float64(r.JIT.StaleDrops),
		"jit.switchovers":         float64(r.JIT.Switchovers),
		"jit.failures":            float64(r.JIT.Failures),
		"plancache.hits":          float64(pl.Hits + un.Hits),
		"plancache.cold_misses":   float64(pl.ColdMisses + un.ColdMisses),
		"plancache.band_misses":   float64(pl.BandMisses + un.BandMisses),
		"plancache.stale_drops":   float64(pl.StaleDrops + un.StaleDrops),
		"plancache.crossrun_hits": float64(pl.CrossRunHits + un.CrossRunHits),
	}
}

// batch is one program the batch workloads Run repeatedly.
type batch struct {
	b    *analysis.Built
	opts core.Options
	want relState
}

// run is one checked Program.Run under a root span called kind. The root's
// own time, beyond its core.run child, is the driver's.
func (x *batch) run(tr *tracer, kind string) (time.Duration, error) {
	root := tr.root(kind)
	sp := tr.start(root, "core.run")
	t0 := time.Now()
	res, err := x.b.P.Run(x.opts)
	lat := time.Since(t0)
	var c map[string]float64
	if err == nil && sp >= 0 {
		c = runCounts(res)
	}
	tr.finish(sp, "", c)
	tr.finish(root, "", nil)
	if err != nil {
		return 0, err
	}
	return lat, check(x.b.P.Catalog(), x.want, true)
}

// batchPair is the instance of the two batch workloads: op Runs one program,
// aux the other.
type batchPair struct{ primary, secondary batch }

func (p *batchPair) op(tr *tracer) (time.Duration, error) {
	return p.primary.run(tr, "op")
}

func (p *batchPair) aux(tr *tracer) (time.Duration, error) {
	return p.secondary.run(tr, "aux")
}

func (p *batchPair) timed(d time.Duration, tr *tracer) *phase {
	return closedLoop(p, d, tr)
}

// batchTx is a transaction inserting, or deleting, every tuple of batch.
func batchTx(p *core.Program, rel *core.Relation, batch [][]storage.Value, insert bool) *core.Tx {
	tx := p.NewTx()
	for _, t := range batch {
		if insert {
			tx.InsertTuple(rel, t)
		} else {
			tx.DeleteTuple(rel, t)
		}
	}
	return tx
}

// firstCycle completes the first op and aux of a new instance: the tail of
// every set-up.
func firstCycle(c cycler, tr *tracer) error {
	if _, err := c.op(tr); err != nil {
		return fmt.Errorf("first op: %w", err)
	}
	if _, err := c.aux(tr); err != nil {
		return fmt.Errorf("first aux: %w", err)
	}
	return nil
}

// cspaOrder: the adversarial atom order against the hand order.
type cspaOrder struct {
	in   *cspaInput
	want relState
}

func (*cspaOrder) name() string { return "cspa_order" }
func (*cspaOrder) cleanup()     {}

func (w *cspaOrder) prepare(cfg *config) (map[string]relState, error) {
	w.in = genCSPA(cfg.sizes, cfg.seed)
	// The oracle runs the hand order only: without reordering the naive
	// interpreter needs tens of seconds for the adversarial one. Every timed
	// op on the adversarial program is then held to the hand order's result.
	states, err := expect(cfg, w.name(), map[string]func() *analysis.Built{
		"base": func() *analysis.Built { return buildCSPA(analysis.HandOptimized, w.in, nil) },
	})
	w.want = states["base"]
	return states, err
}

func (w *cspaOrder) setup(tr *tracer) (instance, error) {
	p := &batchPair{
		primary:   batch{buildCSPA(analysis.Unoptimized, w.in, nil), engineOpts(), w.want},
		secondary: batch{buildCSPA(analysis.HandOptimized, w.in, nil), engineOpts(), w.want},
	}
	return p, firstCycle(p, tr)
}

// tcLarge: one recursive rule over a large closure, flat against sharded.
type tcLarge struct {
	in   *tcInput
	want relState
}

func (*tcLarge) name() string { return "tc_large" }
func (*tcLarge) cleanup()     {}

func (w *tcLarge) prepare(cfg *config) (map[string]relState, error) {
	w.in = genTC(cfg.sizes.TCNodes, cfg.sizes.TCEdges, false, cfg.seed)
	states, err := expect(cfg, w.name(), map[string]func() *analysis.Built{
		"base": func() *analysis.Built { return buildTC(w.in, nil) },
	})
	w.want = states["base"]
	return states, err
}

func (w *tcLarge) setup(tr *tracer) (instance, error) {
	sharded := engineOpts()
	sharded.Shards, sharded.Workers, sharded.AdaptiveFanout = 8, 2, true
	p := &batchPair{
		primary:   batch{buildTC(w.in, nil), engineOpts(), w.want},
		secondary: batch{buildTC(w.in, nil), sharded, w.want},
	}
	return p, firstCycle(p, tr)
}

// streamChurn: a standing fixpoint maintained through delete and re-insert
// batches.
type streamChurn struct {
	in              *tcInput
	present, absent relState
}

func (*streamChurn) name() string { return "stream_churn" }
func (*streamChurn) cleanup()     {}

func (w *streamChurn) prepare(cfg *config) (map[string]relState, error) {
	w.in = genTC(cfg.sizes.ChurnNodes, cfg.sizes.ChurnEdges, true, cfg.seed)
	states, err := expect(cfg, w.name(), map[string]func() *analysis.Built{
		"present": func() *analysis.Built { return buildTC(w.in, w.in.churn) },
		"absent":  func() *analysis.Built { return buildTC(w.in, nil) },
	})
	w.present, w.absent = states["present"], states["absent"]
	return states, err
}

type churnInst struct {
	w    *streamChurn
	b    *analysis.Built
	edge *core.Relation
	opts core.Options
}

func (w *streamChurn) setup(tr *tracer) (instance, error) {
	c := &churnInst{w: w, b: buildTC(w.in, w.in.churn), opts: engineOpts()}
	c.edge = c.b.P.Relation("edge", 2)
	// Apply keeps its plans and compiled units in the Program's store from
	// one transaction to the next; that is the maintained state this
	// workload exists to time.
	c.opts.SharedPlans = true
	if _, err := c.b.P.Run(c.opts); err != nil { // the standing fixpoint
		return nil, err
	}
	if err := check(c.b.P.Catalog(), w.present, true); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return c, firstCycle(c, tr)
}

func (c *churnInst) apply(tr *tracer, kind, spanName string, del bool, want relState) (time.Duration, error) {
	root := tr.root(kind)
	tx := batchTx(c.b.P, c.edge, c.w.in.churn, !del)
	sp := tr.start(root, spanName)
	t0 := time.Now()
	res, err := c.b.P.Apply(tx, c.opts)
	lat := time.Since(t0)
	var counts map[string]float64
	if err == nil && sp >= 0 {
		counts = runCounts(res.Result)
		if res.Cold {
			counts["core.cold_applies"] = 1
		}
	}
	tr.finish(sp, "", counts)
	tr.finish(root, "", nil)
	if err != nil {
		return 0, err
	}
	if res.Cold {
		return 0, fmt.Errorf("apply took the cold path")
	}
	return lat, check(c.b.P.Catalog(), want, true)
}

func (c *churnInst) op(tr *tracer) (time.Duration, error) {
	return c.apply(tr, "op", "core.apply_delete", true, c.w.absent)
}

func (c *churnInst) aux(tr *tracer) (time.Duration, error) {
	return c.apply(tr, "aux", "core.apply_insert", false, c.w.present)
}

func (c *churnInst) timed(d time.Duration, tr *tracer) *phase {
	return closedLoop(c, d, tr)
}
