package interp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"carac/internal/ast"
	"carac/internal/eval"
	"carac/internal/ir"
	"carac/internal/storage"
)

// ErrCancelled is returned when execution was aborted via Interp.Cancel
// (e.g. a benchmark timeout marking a configuration as DNF).
var ErrCancelled = errors.New("interp: execution cancelled")

// Controller is the JIT hook consulted at every IROp safe point. Enter may
// return a thunk to execute *instead of* interpreting op's subtree (a
// compiled unit), or nil to let interpretation proceed. A Controller may
// also mutate SPJ atom orders in place before returning nil (the
// IRGenerator backend).
type Controller interface {
	Enter(op ir.Op, in *Interp) func() error
}

// Yielder is an optional Controller extension: ShouldYield is polled from
// inside long-running subquery executions and, when it returns true, the
// interpreter abandons the subquery and immediately offers the controller a
// safe point — letting asynchronously compiled code take over "at the exact
// spot the interpreter left off" instead of waiting out a badly-ordered
// join (paper §V-B2). Abandonment is sound for what it leaves behind: the
// rows a plain subquery emitted before the yield are real derivations the
// take-over unit would derive again (set semantics absorb them), and an
// aggregate subquery emits nothing when abandoned — its groups are only
// complete once the whole body has been scanned, so partial ones are dropped
// (runPlanWith). The controller only yields when a unit subsuming the
// abandoned work is ready, and the interpreter re-runs the subquery itself
// if the controller declines after all.
type Yielder interface {
	ShouldYield(op ir.Op, in *Interp) bool
}

// ShardUnit is a morsel-parameterized compiled rule body: one invocation
// evaluates the rule's subqueries as task lo..hi of n, each delta read
// restricted to its morsel, rows [L·lo/n, L·hi/n) of the δ's L rows
// (storage.Morsel; n <= 1 evaluates the whole delta), writing derivations
// through DerivationSink — the worker's private append-only list under the
// parallel pool, the predicate's Emit otherwise. Units resolve relations and
// their lengths at invocation time (SwapClear swaps relation structs between
// iterations), carry no mutable compile-time state, and must be safe to
// invoke concurrently from distinct pool workers.
type ShardUnit func(in *Interp, lo, hi, n int) error

// ShardCompiler is an optional Controller extension consulted by the
// parallel fixpoint driver at the sequential fan-out point of each
// iteration: ResolveShardUnit may return a compiled task body for rule that
// the pool workers then invoke — one call per morsel task, with exactly the
// morsels the interpreted tasks read — instead of
// interpreting the rule's subtree. Returning nil leaves the rule
// interpreted (compilation pending, failed, or unsupported). The driver
// calls ResolveShardUnit only from the interpreter goroutine, so
// implementations may keep single-threaded state there; the returned units
// themselves run on pool workers.
//
// A Controller that does not implement ShardCompiler disables the parallel
// driver entirely (the pre-shard-native behaviour: JIT state was
// single-threaded, so attaching a Controller forced sequential loops).
type ShardCompiler interface {
	ResolveShardUnit(rule *ir.UnionRuleOp, in *Interp) ShardUnit
}

// Stats collects execution counters.
type Stats struct {
	Iterations    int64 // DoWhile loop passes
	Derivations   int64 // new facts staged in Derived (PredicateDB.Emit): the rows a run adds
	Matches       int64 // head tuples the subqueries emitted, before any dedup: body matches, or groups of an aggregate
	SPJRuns       int64 // subquery executions
	PlanBuilds    int64 // access plans constructed by the interpreter
	PlanReuses    int64 // always 0: the interpreter caches no plans; kept because perf/ reads it
	Reopts        int64 // always 0: the interpreter re-optimizes no order; kept because perf/ reads it
	Compiled      int64 // subtrees executed via a Controller thunk
	SeqIters      int64 // parallel-run iterations the fan-out decision ran on the sequential path
	MergeTasks    int64 // workers whose lists a merge barrier folded: the pool size, per pooled barrier
	EstimatedRows int64 // summed histogram-based join-size estimates recorded at plan builds
	Retracted     int64 // rows physically removed by retraction batches (seeds + over-deletes that stayed dead)
	Rederived     int64 // over-deleted rows resurrected by the DRed rederivation round
}

// Interp is the tree-walking interpreter (paper §V-B: "when Carac is in
// interpretation mode, there is no further partial evaluation and the
// interpreter visits this IROp tree"). With a Controller attached it is the
// JIT's baseline execution mode between compilations.
type Interp struct {
	Cat   *storage.Catalog
	Ctrl  Controller
	Stats Stats

	// Parallel evaluates the independent rules of each DoWhile iteration
	// concurrently on a bounded worker pool — sound because the delta split
	// makes readers (Derived, DeltaKnown) frozen for the iteration and each
	// worker appends only to its private lists, folded through the
	// predicates' Emit at the iteration barrier (§V-D). Every iteration
	// decides its own fan-out from the live delta cardinalities
	// (chooseFanout): an iteration whose total delta is under
	// FanoutThreshold runs on the sequential path (no task spawn, no worker
	// lists, no merge), so fixpoint tails — many iterations, tiny deltas —
	// pay no parallelism tax. Honored without a Controller, or with one
	// implementing ShardCompiler (the JIT's controller does: pool tasks then
	// run morsel-parameterized compiled units where one is ready,
	// interpretation otherwise); any other Controller forces the sequential
	// loop. Parallel=false is the sequential fallback.
	Parallel bool
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int

	// Shards > 1 is the most tasks each rule of a parallel iteration fans
	// out as. Each task reads a morsel of the rule's flat δ — a contiguous
	// row range, task i of n reading rows [L·i/n, L·(i+1)/n) of its L rows —
	// so a single huge recursive rule, the common shape in
	// transitive-closure-style workloads, no longer serializes the
	// iteration: parallelism becomes bounded by data size, not rule count.
	// Only honored together with Parallel.
	Shards int

	// FanoutThreshold is the sequential-path delta bound of the fan-out
	// decision; <= 0 selects DefaultFanoutThreshold. At 1 every non-empty
	// iteration fans out to min(total delta rows, Shards) tasks per rule
	// whenever Shards <= 4 x the worker count — the escape hatch tests and
	// ablations use to force the pool.
	FanoutThreshold int

	// Reorder, when non-nil, puts a retraction subquery's atoms into the
	// optimizer's order for the live cardinalities (retract.go calls it on
	// every variant before every round, unconditionally). An error means no
	// legal order exists and fails the retraction. It is a hook because the
	// optimizer's tests import this package.
	Reorder func(spj *ir.SPJOp) error
	// Estimate, when non-nil, returns the caller's join-output size estimate
	// for a subquery (histogram-based when the catalog maintains histograms).
	// The interpreter records it on every plan it builds (Plan.EstRows) and
	// accumulates it into Stats.EstimatedRows.
	Estimate func(spj *ir.SPJOp) float64

	// SeedDelta, when non-nil, replaces ScanOp's full Derived→DeltaNew
	// seeding for the predicates it handles (returns true): instead of
	// pushing every Derived row through the first iteration, the caller
	// passes seed only the rows that are new relative to an already-known
	// fixpoint — the warm-start path of materialized-epoch serving, where
	// Derived is pre-seeded with the previous epoch's fixpoint and only the
	// ingested delta needs to re-enter semi-naive evaluation. Each row must
	// be a row of Derived, handed over once (PredicateDB.Seed). Sound only
	// for monotone programs under additions-only deltas; the serving layer
	// gates it on that. Predicates the hook declines (returns false) seed
	// fully. Every backend's ScanOp consults it, through Seed.
	SeedDelta func(pid storage.PredID, seed func(row []storage.Value)) bool

	// Frame is the register file of the compiled units this interpreter
	// invokes, kept here by the backend that made it (the lambda target's
	// step chains) so that an invocation allocates nothing: a unit runs to
	// completion before the next one starts on the same interpreter, and
	// every pool worker's sub-interpreter keeps its own.
	Frame any

	cancel atomic.Bool
	// cancelHook chains a parent interpreter's cancellation into workers
	// spawned by parallel rule evaluation.
	cancelHook func() bool
	// bufSink, when non-nil, redirects subquery derivations into a private
	// per-worker list instead of the sink's Emit (parallel rule evaluation;
	// folded at the iteration barrier).
	bufSink func(pred storage.PredID) *RowList
	// task and tasks restrict this (sub-)interpreter's subquery executions
	// to morsel task of tasks of each delta read (storage.Morsel); tasks
	// <= 1 means unrestricted. Set per task by the pool's fan-out.
	task  int
	tasks int
	// workers holds the lazily built pool state of runLoopParallel and
	// runRetractPlans.
	workers []*workerState
	// taskSegs holds, per task of the running batch, the segments of the
	// workers' lists it wrote: the barrier folds them in task order.
	taskSegs [][]segment
}

// Cancel aborts the run at the next safe point (callable from any
// goroutine). Compiled units poll it in their loop heads.
func (in *Interp) Cancel() { in.cancel.Store(true) }

// Cancelled reports whether Cancel was called (here or on the parent).
func (in *Interp) Cancelled() bool {
	return in.cancel.Load() || (in.cancelHook != nil && in.cancelHook())
}

// ResetCancel clears a pending cancellation so a reused interpreter can run
// again — serving sessions execute many queries on one Interp, and a
// timed-out query must not poison the ones after it.
func (in *Interp) ResetCancel() { in.cancel.Store(false) }

// TakeStats returns the accumulated execution counters and zeroes them, so
// the next run starts a fresh window. This is the per-query accounting
// surface for serving sessions, which reuse one interpreter across queries:
// Stats becomes query-scoped instead of Interp-global. One-shot runs
// (Program.Run builds a fresh Interp) observe identical values either way.
func (in *Interp) TakeStats() Stats {
	s := in.Stats
	in.Stats = Stats{}
	return s
}

// New returns an interpreter over cat with an optional controller.
func New(cat *storage.Catalog, ctrl Controller) *Interp {
	return &Interp{Cat: cat, Ctrl: ctrl}
}

// NewBuffered returns an interpreter whose subquery derivations are
// appended to the lists sink hands out per predicate instead of going
// through the predicates' Emit — the worker shape of the parallel pool (set
// difference against Derived and the list's repeat filter still apply;
// exact deduplication and derivation counting happen when the caller folds
// each listed row through PredicateDB.Emit). Exposed for drivers and tests that execute compiled
// ShardUnits outside the built-in pool.
func NewBuffered(cat *storage.Catalog, sink func(pred storage.PredID) *RowList) *Interp {
	return &Interp{Cat: cat, bufSink: sink}
}

// Run executes the IR program to fixpoint. A run that stops mid-iteration
// leaves no staged rows behind (storage.Catalog.DropStaged).
func (in *Interp) Run(root ir.Op) error {
	err := in.Exec(root)
	if err != nil {
		in.Cat.DropStaged()
	}
	return err
}

// Seed is every backend's ScanOp: it seeds each predicate's δ′ for a
// stratum's first iteration with what the SeedDelta hook hands over, or with
// all of Derived where the hook declines or is unset.
func (in *Interp) Seed(preds []storage.PredID) {
	for _, pid := range preds {
		p := in.Cat.Pred(pid)
		if in.SeedDelta == nil || !in.SeedDelta(pid, p.Seed) {
			p.SeedAll()
		}
	}
}

// Exec executes one IROp subtree, honoring controller safe points.
func (in *Interp) Exec(op ir.Op) error {
	if in.cancel.Load() {
		return ErrCancelled
	}
	if in.Ctrl != nil {
		if fn := in.Ctrl.Enter(op, in); fn != nil {
			in.Stats.Compiled++
			return fn()
		}
	}
	return in.interpret(op)
}

// Interpret executes op without consulting the controller at this node
// (children still hit safe points). Compiled snippet continuations call
// this to hand control back to the interpreter.
func (in *Interp) Interpret(op ir.Op) error { return in.interpret(op) }

func (in *Interp) interpret(op ir.Op) error {
	switch n := op.(type) {
	case *ir.ProgramOp:
		for _, c := range n.Body {
			if err := in.Exec(c); err != nil {
				return err
			}
		}
		return nil

	case *ir.ScanOp:
		in.Seed(n.Preds)
		return nil

	case *ir.SwapClearOp:
		for _, pid := range n.Preds {
			in.Cat.Pred(pid).SwapClear()
		}
		return nil

	case *ir.DoWhileOp:
		if in.Parallel && (in.Ctrl == nil || in.shardCtrl() != nil) {
			return in.runLoopParallel(n)
		}
		for {
			for _, c := range n.Body {
				if err := in.Exec(c); err != nil {
					return err
				}
			}
			in.Stats.Iterations++
			if DeltasEmpty(in.Cat, n.Preds) {
				return nil
			}
		}

	case *ir.UnionAllOp:
		for _, r := range n.Rules {
			if err := in.Exec(r); err != nil {
				return err
			}
		}
		return nil

	case *ir.UnionRuleOp:
		for _, s := range n.Subqueries {
			if err := in.Exec(s); err != nil {
				return err
			}
		}
		return nil

	case *ir.SPJOp:
		return in.execSPJ(n)
	}
	return fmt.Errorf("interp: unknown op %T", op)
}

// shardCtrl returns the attached Controller's ShardCompiler extension, or
// nil when there is no controller or it cannot produce parallel task units.
func (in *Interp) shardCtrl() ShardCompiler {
	if sc, ok := in.Ctrl.(ShardCompiler); ok {
		return sc
	}
	return nil
}

// DerivationSink returns the list subquery derivations for pred must be
// appended to in this (sub-)interpreter's context: the worker's private list
// under parallel buffered evaluation, or nil when derivations go through the
// predicate's Emit (counted into Stats.Derivations when new). Compiled
// ShardUnits consult it so their emits feed the same merge barrier the
// interpreted tasks feed.
func (in *Interp) DerivationSink(pred storage.PredID) *RowList {
	if in.bufSink == nil {
		return nil
	}
	return in.bufSink(pred)
}

// DeltasEmpty reports whether every listed predicate's DeltaKnown is empty —
// the DoWhile termination condition.
func DeltasEmpty(cat *storage.Catalog, preds []storage.PredID) bool {
	for _, pid := range preds {
		if !cat.Pred(pid).DeltaKnown.Empty() {
			return false
		}
	}
	return true
}

// planFor builds the access plan for the subquery's current atom order: an
// interpreted subquery plans at every execution, the interpretation overhead
// compiled backends avoid. The histogram-based join-output estimate, when the
// caller supplies one, is stamped onto the plan and totalled.
func (in *Interp) planFor(spj *ir.SPJOp) (*Plan, error) {
	in.Stats.PlanBuilds++
	p, err := BuildPlan(spj, in.Cat)
	if err != nil {
		return nil, err
	}
	if in.Estimate != nil {
		p.EstRows = in.Estimate(spj)
		in.Stats.EstimatedRows += int64(p.EstRows)
	}
	return p, nil
}

// applyMorsel restricts the plan's delta read — the first relational step
// reading SrcDelta — to the task's morsel of δ (storage.Morsel).
func (in *Interp) applyMorsel(plan *Plan) {
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if st.Src == ir.SrcDelta && (st.Kind == StepScan || st.Kind == StepProbe || st.Kind == StepProbeN) {
			rows := in.Cat.Pred(st.Pred).DeltaKnown.Len()
			plan.Morsel, plan.MorselStep = true, i
			plan.MorselFrom, plan.MorselTo = storage.Morsel(rows, in.task, in.task+1, in.tasks)
			return
		}
	}
}

// execSPJ interprets one subquery: it resolves an access plan for the
// current atom order and streams matches into the
// sink through Plan.Execute. Under a morsel task a subquery without a delta
// atom is whole-relation work that the first task runs alone, so the
// fan-out neither duplicates nor drops it.
func (in *Interp) execSPJ(spj *ir.SPJOp) error {
	if in.tasks > 1 && spj.DeltaAtom() < 0 && in.task != 0 {
		return nil
	}
	plan, err := in.planFor(spj)
	if err != nil {
		return err
	}
	if in.tasks > 1 {
		in.applyMorsel(plan)
	}
	plan.Cancel = in.Cancelled
	if y, ok := in.Ctrl.(Yielder); ok {
		plan.Yield = func() bool { return y.ShouldYield(spj, in) }
	}
	in.Stats.SPJRuns++
	run := func() {
		if in.bufSink != nil {
			// Parallel rule evaluation: derivations land in this worker's
			// private list and are counted at the merge barrier.
			runPlanBuffered(plan, in.Cat, in.bufSink(plan.Sink), &in.Stats)
		} else {
			RunPlan(plan, in.Cat, &in.Stats)
		}
	}
	run()
	if plan.Yielded {
		// A compiled ancestor became ready mid-join: hand over now.
		if fn := in.Ctrl.Enter(spj, in); fn != nil {
			in.Stats.Compiled++
			return fn()
		}
		// Controller declined (e.g. unit went stale): finish interpreted.
		plan.Yield = nil
		plan.Yielded = false
		run()
	}
	return nil
}

// workerState is the persistent per-worker state of the parallel pools: a
// sub-interpreter (sharing the read-only catalog) and the
// private lists its derivations land in between barriers.
type workerState struct {
	sub *Interp
	out workerOut
	err error
}

// workerCount resolves the configured pool bound: Workers, or GOMAXPROCS
// when unset.
func (in *Interp) workerCount() int {
	if in.Workers > 0 {
		return in.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// poolSize resolves the bounded worker count for a task batch: workerCount,
// never more than there are tasks.
func (in *Interp) poolSize(tasks int) int {
	w := in.workerCount()
	if w > tasks {
		w = tasks
	}
	return w
}

// ensureWorkers sizes the persistent pool state.
func (in *Interp) ensureWorkers(n int) {
	for len(in.workers) < n {
		ws := &workerState{
			sub: &Interp{Cat: in.Cat, Estimate: in.Estimate, cancelHook: in.Cancelled},
		}
		ws.sub.bufSink = func(pid storage.PredID) *RowList {
			return ws.out.sink(pid, in.Cat.Pred(pid).Arity)
		}
		in.workers = append(in.workers, ws)
	}
}

// startTasks readies the per-task segment slots for a batch of n tasks.
func (in *Interp) startTasks(n int) [][]segment {
	for len(in.taskSegs) < n {
		in.taskSegs = append(in.taskSegs, nil)
	}
	for i := range n {
		in.taskSegs[i] = in.taskSegs[i][:0]
	}
	return in.taskSegs[:n]
}

// endTasks folds the batch's rows through f in task order and gives every
// one of the w workers' chunks back to the scratch pool: the barrier.
func (in *Interp) endTasks(segs [][]segment, w int, f func(pred storage.PredID, row []storage.Value)) {
	if f != nil {
		foldSegments(segs, f)
	}
	for _, ws := range in.workers[:w] {
		ws.out.release()
	}
}

// shardTask is one unit of parallel work: a rule, restricted to morsel task
// of tasks of its delta reads (tasks 0 = the unrestricted rule-granular
// task), optionally carrying the compiled morsel-parameterized body the
// controller resolved for the rule this iteration (nil = interpret).
type shardTask struct {
	rule  *ir.UnionRuleOp
	task  int
	tasks int
	unit  ShardUnit
}

// DefaultFanoutThreshold is the sequential-path delta bound of the fan-out
// decision: iterations with fewer total delta tuples than this run in place,
// since at that size the per-task scheduling plus list-merge overhead
// exceeds the join work itself on every workload measured.
const DefaultFanoutThreshold = 256

// chooseFanout picks the iteration's strategy from the live delta
// cardinalities of the loop's predicates and returns the number of tasks
// per rule: 0 runs the iteration on the sequential path (no tasks, no
// lists, no merge), 1 is rule-granular parallelism, more hands each task a
// morsel of the rule's δ. An iteration under the threshold runs
// sequentially; a larger one gets one task per ~threshold/4 delta rows,
// never more than 4x the pool (diminishing balance returns) or Shards. So
// at FanoutThreshold 1 every non-empty iteration fans out to min(total
// delta rows, Shards) tasks whenever Shards <= 4 x workers.
func (in *Interp) chooseFanout(n *ir.DoWhileOp) int {
	total := 0
	for _, pid := range n.Preds {
		total += in.Cat.Pred(pid).DeltaKnown.Len()
	}
	threshold := in.FanoutThreshold
	if threshold <= 0 {
		threshold = DefaultFanoutThreshold
	}
	if total < threshold {
		return 0
	}
	eff := total / max(threshold/4, 1)
	return max(min(eff, 4*in.workerCount(), max(in.Shards, 1)), 1)
}

// runLoopParallel evaluates one stratum loop with the independent rules of
// each iteration distributed over a bounded worker pool; with Shards > 1
// each rule additionally fans out as tasks over morsels of its δ, so a
// single large rule saturates the pool instead of serializing the
// iteration. Every worker reads only Derived/DeltaKnown relations — frozen
// for the duration of the iteration — and appends only to its own private
// lists, so the fan-out is race-free by construction; the lists are folded
// through the predicates' Emit (one probe of Derived, the only exact
// deduplication) at the iteration barrier, and SwapClearOps stay sequential
// there.
//
// The task count is re-decided every iteration from the live delta
// cardinalities (chooseFanout), and small-delta iterations bypass the
// machinery entirely: they interpret the body in place exactly like the
// sequential driver, spawning no tasks and touching no lists.
func (in *Interp) runLoopParallel(n *ir.DoWhileOp) error {
	var pending []shardTask
	for {
		if tasks := in.chooseFanout(n); tasks == 0 {
			in.Stats.SeqIters++
			for _, c := range n.Body {
				if err := in.Exec(c); err != nil {
					return err
				}
			}
		} else if err := in.runIterationTasks(n, tasks, &pending); err != nil {
			return err
		}
		in.Stats.Iterations++
		if in.Cancelled() {
			return ErrCancelled
		}
		if DeltasEmpty(in.Cat, n.Preds) {
			return nil
		}
	}
}

// runIterationTasks executes one iteration's body with rule evaluation
// fanned out over the pool, tasks morsel tasks per rule (tasks < 2: one
// rule-granular task each), flushed at every non-union op so cross-rule
// ordering is preserved.
func (in *Interp) runIterationTasks(n *ir.DoWhileOp, tasks int, pending *[]shardTask) error {
	if tasks < 2 {
		tasks = 0
	}
	flush := func() error {
		if len(*pending) == 0 {
			return nil
		}
		defer func() { *pending = (*pending)[:0] }()
		w := in.poolSize(len(*pending))
		if w <= 1 {
			// Degenerate pool: evaluate each rule once, unrestricted and in
			// place, writing DeltaNew directly like the sequential path —
			// through Exec, so a Controller's safe point still fires at the
			// rule node and sequential compiled units run exactly as they
			// did under the pre-shard-native sequential loop. Tasks of one
			// rule are contiguous; run the rule at its first task only.
			var last *ir.UnionRuleOp
			for _, t := range *pending {
				if t.rule == last {
					continue
				}
				last = t.rule
				if err := in.Exec(t.rule); err != nil {
					return err
				}
			}
			return nil
		}
		// Compiled task bodies: only now is it known that a pool will
		// actually run, so resolve a unit per rule here — still on the
		// interpreter goroutine, before the workers spawn (the controller's
		// resolution state is single-threaded) — and stamp every task of
		// the rule (tasks of one rule are contiguous in pending).
		if sc := in.shardCtrl(); sc != nil {
			var lastRule *ir.UnionRuleOp
			var lastUnit ShardUnit
			for i := range *pending {
				t := &(*pending)[i]
				if t.rule != lastRule {
					lastRule = t.rule
					lastUnit = sc.ResolveShardUnit(t.rule, in)
				}
				t.unit = lastUnit
			}
		}
		// Tasks build their plans but never an index: ensure every delta's.
		for _, pid := range n.Preds {
			in.Cat.Pred(pid).DeltaKnown.EnsureIndexes()
		}
		in.ensureWorkers(w)
		segs := in.startTasks(len(*pending))
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			ws := in.workers[i]
			ws.err = nil
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ti := int(next.Add(1) - 1)
					if ti >= len(*pending) || ws.sub.Cancelled() {
						return
					}
					t := (*pending)[ti]
					var err error
					if t.unit != nil {
						// Compiled task body: the unit applies the task's
						// morsel itself and emits through the worker's
						// DerivationSink lists.
						ws.sub.Stats.Compiled++
						err = t.unit(ws.sub, t.task, t.task+1, t.tasks)
					} else {
						ws.sub.task, ws.sub.tasks = t.task, t.tasks
						err = ws.sub.interpret(t.rule)
					}
					if err != nil {
						ws.err = err
						return
					}
					segs[ti] = ws.out.endTask(segs[ti])
				}
			}()
		}
		wg.Wait()
		return in.mergeWorkers(segs, w)
	}
	for _, c := range n.Body {
		if ua, ok := c.(*ir.UnionAllOp); ok {
			for _, r := range ua.Rules {
				for i := range max(tasks, 1) {
					*pending = append(*pending, shardTask{rule: r, task: i, tasks: tasks})
				}
			}
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		if err := in.Exec(c); err != nil {
			return err
		}
	}
	return flush()
}

// mergeWorkers folds the rows the tasks wrote into the workers' lists into
// the sinks through PredicateDB.Emit — staging each new row in Derived, the
// pool's only exact deduplication, as it is the sequential path's — counting
// derivations exactly like the sequential sink, and accumulates worker
// execution counters. Runs at the iteration barrier and folds in task order,
// whichever worker ran a task, so δ′'s row order does not depend on
// scheduling; every chunk returns to the scratch pool.
func (in *Interp) mergeWorkers(segs [][]segment, w int) error {
	var firstErr error
	for _, ws := range in.workers[:w] {
		if ws.err != nil && firstErr == nil {
			firstErr = ws.err
		}
		s := ws.sub.Stats
		in.Stats.SPJRuns += s.SPJRuns
		in.Stats.Matches += s.Matches
		in.Stats.PlanBuilds += s.PlanBuilds
		in.Stats.Compiled += s.Compiled
		in.Stats.EstimatedRows += s.EstimatedRows
		ws.sub.Stats = Stats{}
	}
	var emit func(storage.PredID, []storage.Value)
	if firstErr == nil {
		in.Stats.MergeTasks += int64(w)
		emit = func(pred storage.PredID, row []storage.Value) {
			if in.Cat.Pred(pred).Emit(row) {
				in.Stats.Derivations++
			}
		}
	}
	in.endTasks(segs, w, emit)
	return firstErr
}

// runPlanWith executes the plan, routing every match (through the
// aggregation path when configured) into insert.
func runPlanWith(p *Plan, cat *storage.Catalog, insert func(t []storage.Value)) {
	if p.Agg.Kind == ast.AggNone {
		p.Execute(cat, func(head, _ []storage.Value) { insert(head) })
		return
	}
	agg := eval.NewAggregator(p.Agg.Kind, len(p.Head), p.Agg.HeadPos)
	p.Execute(cat, func(head, bind []storage.Value) {
		var v storage.Value
		if p.Agg.Kind != ast.AggCount {
			v = bind[p.Agg.OverVar]
		}
		agg.Add(head, v)
	})
	if p.Yielded || (p.Cancel != nil && p.Cancel()) {
		// Abandoned mid-scan: the groups are partial, and a partial
		// aggregate is a wrong fact, not an early one. Whoever takes over
		// (the yielded-to unit, or execSPJ's re-run) computes them whole.
		return
	}
	agg.Emit(insert)
}

// RunPlan executes a built plan against the standard semi-naive sink, the
// predicate's Emit, sinking matches (via the aggregation path when
// configured) and counting them and the new tuples derived into st. Shared
// by the interpreter and the bytecode/quotes fixtures, on the coordinating
// goroutine: it ensures the delta indexes the plan probes first.
func RunPlan(p *Plan, cat *storage.Catalog, st *Stats) {
	EnsureDeltaIndexes(p, cat)
	sink := cat.Pred(p.Sink)
	runPlanWith(p, cat, func(t []storage.Value) {
		st.Matches++
		if sink.Emit(t) {
			st.Derivations++
		}
	})
}

// runPlanBuffered executes the plan with derivations appended to a private
// list instead of going through the sink's Emit (parallel rule evaluation),
// counting the matches into the worker's st. Set difference against the
// iteration-frozen Derived and the list's repeat filter (AppendNew) still
// apply here to keep lists short; exact duplicate elimination — within the
// list, across workers and against the iteration's other finds — happens at
// the merge barrier.
func runPlanBuffered(p *Plan, cat *storage.Catalog, buf *RowList, st *Stats) {
	sink := cat.Pred(p.Sink)
	runPlanWith(p, cat, func(t []storage.Value) {
		st.Matches++
		if !sink.Derived.Contains(t) {
			buf.AppendNew(t)
		}
	})
}
