// Package core is Carac's public engine API: a deep embedding of Datalog
// into Go (paper §V-A) with stratified negation, aggregation, and arithmetic
// builtins, wired to the semi-naive fixpoint executor, the runtime
// join-order optimizer, and the JIT with its four compilation targets.
//
// Typical use:
//
//	p := core.NewProgram()
//	edge := p.Relation("edge", 2)
//	tc := p.Relation("tc", 2)
//	x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
//	p.MustRule(tc.A(x, y), edge.A(x, y))
//	p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
//	edge.MustFact(1, 2)
//	res, err := p.Run(core.Options{JIT: jit.Config{Backend: jit.BackendLambda}})
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/parser"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Var is a Datalog variable for the embedded DSL. Identity is pointer-based:
// two NewVar("x") calls create distinct variables.
type Var struct{ name string }

// NewVar creates a fresh variable with a diagnostic name.
func NewVar(name string) *Var { return &Var{name: name} }

// Program owns a catalog of relations, the rule set, and execution.
//
// Concurrency contract: the Program is single-writer, many-reader. Rule and
// fact construction (Rule, Fact, LoadSource) belongs to one goroutine at a
// time with no Run in flight. Run itself is guarded by an internal mutex, so
// concurrent Run calls serialize instead of corrupting the ground-fact
// baseline — but they still share one catalog, so the supported way to
// evaluate concurrently is Serve: sessions opened on a Server each pin an
// immutable epoch snapshot and execute on private catalogs, any number in
// parallel, while fact ingestion (the single writer) builds the next epoch
// behind the same mutex. See doc.go §Serving for the epoch lifecycle.
//
// Post-Run mutation contract: the rule set freezes at the first Run — rules
// and parsed source may only be added before it (create a new Program for a
// different rule set). Facts may keep being added between runs (incremental
// batches rewind derived state to the ground-fact baseline), and repeated
// Runs are always legal. Under Options.SharedPlans the Program additionally
// owns a store that carries compiled JIT units and their drift state across
// those runs — and across serving sessions.
type Program struct {
	cat      *storage.Catalog
	prog     *ast.Program
	baseLens []int // ground-fact baseline per predicate, captured on first Run
	frozen   bool
	// runMu serializes everything that owns the shared catalog's mutable
	// state: Run, fact ingestion after the first Run, and the serving
	// layer's epoch publication. Readers never take it — sessions read only
	// their pinned epoch and their private catalogs.
	runMu sync.Mutex
	// baselineClean is true when Derived holds exactly the ground facts
	// (i.e. derived rows have been truncated away after the last Run),
	// enabling incremental fact addition between runs.
	baselineClean bool
	// haveFixpoint is true while Derived holds a complete fixpoint for the
	// current ground facts — the precondition for Apply's incremental
	// (counting + DRed) path. Cleared whenever derived state is rewound or a
	// run fails mid-derivation.
	haveFixpoint bool
	// countsReady is true once every Derived relation is in counted mode
	// (per-row assertion multiplicities, storage.EnableCounts) — flipped by
	// the first Apply or IngestTx and sticky from then on.
	countsReady bool
	// planStore is the program-lifetime unit store (Options.SharedPlans):
	// the one-map key space behind the JIT's compiled-unit views,
	// created at the first shared Run and kept for the Program's life so
	// later runs and incremental fact batches start warm. Drift counters
	// are storage-resident and monotone, so the freshness state the store
	// gates on carries across runs by construction.
	planStore *plancache.Store
	// retractOrder, when non-nil, replaces the optimizer as the order of
	// Apply's retraction subqueries, and loadHook sees every relation a
	// checkpoint restore loads rows into. Tests set them; nothing else does.
	retractOrder func(spj *ir.SPJOp) error
	loadHook     func(*storage.Relation)
}

// PlanStore returns the program-lifetime store of compiled units, creating
// it (with plancache.DefaultStoreLimit) on first use. Runs consult it only
// when Options.SharedPlans is set; the interpreter's plans never enter it.
func (p *Program) PlanStore() *plancache.Store {
	if p.planStore == nil {
		p.planStore = plancache.NewStore(plancache.DefaultStoreLimit)
	}
	return p.planStore
}

// ensureBaseline rewinds all predicates to their ground-fact baseline so a
// new fact can be appended to the arena prefix (facts may be added
// incrementally between runs, paper §V-A).
func (p *Program) ensureBaseline() {
	if !p.frozen || p.baselineClean {
		return
	}
	for i, pd := range p.cat.Preds() {
		// The deltas first: a δ may still borrow the rows the rewind drops.
		pd.DeltaKnown.Clear()
		pd.DeltaNew.Clear()
		pd.Derived.TruncateTo(p.baseLens[i])
	}
	p.baselineClean = true
	p.haveFixpoint = false // the fixpoint's derived rows are gone
}

func (p *Program) addFact(id storage.PredID, tuple []storage.Value) {
	if p.frozen {
		p.ensureBaseline()
		if p.cat.Pred(id).AddFact(tuple) {
			p.baseLens[id]++
		}
		return
	}
	p.cat.Pred(id).AddFact(tuple)
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	cat := storage.NewCatalog()
	return &Program{cat: cat, prog: ast.NewProgram(cat)}
}

// Catalog exposes the underlying storage catalog (read-mostly; used by
// benchmarks and the baseline engines).
func (p *Program) Catalog() *storage.Catalog { return p.cat }

// AST exposes the rule program (used by baseline engines and tooling).
func (p *Program) AST() *ast.Program { return p.prog }

// Relation declares (or returns the existing) relation name/arity.
func (p *Program) Relation(name string, arity int) *Relation {
	id := p.cat.Declare(name, arity)
	return &Relation{p: p, id: id, arity: arity, name: name}
}

// Relation is a handle for declaring facts, building atoms, and reading
// results.
type Relation struct {
	p     *Program
	id    storage.PredID
	arity int
	name  string
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ID returns the dense predicate id.
func (r *Relation) ID() storage.PredID { return r.id }

// Atom is a DSL literal: a relational atom, its negation, or a builtin.
type Atom struct {
	kind    ast.AtomKind
	pred    storage.PredID
	builtin ast.Builtin
	terms   []any
}

// A builds a positive atom over r. Arguments may be *Var, int (non-negative,
// 32-bit), or string (interned as a symbol).
func (r *Relation) A(args ...any) Atom {
	if len(args) != r.arity {
		panic(fmt.Sprintf("core: %s/%d used with %d arguments", r.name, r.arity, len(args)))
	}
	return Atom{kind: ast.AtomRelation, pred: r.id, terms: args}
}

// Not negates a positive relational atom.
func Not(a Atom) Atom {
	if a.kind != ast.AtomRelation {
		panic("core: Not applies to positive relational atoms")
	}
	a.kind = ast.AtomNegated
	return a
}

func builtinAtom(b ast.Builtin, args ...any) Atom {
	return Atom{kind: ast.AtomBuiltin, builtin: b, terms: args}
}

// Add constrains a+b=c; any single unknown is solved.
func Add(a, b, c any) Atom { return builtinAtom(ast.BAdd, a, b, c) }

// Sub constrains a-b=c over naturals.
func Sub(a, b, c any) Atom { return builtinAtom(ast.BSub, a, b, c) }

// Mul constrains a*b=c.
func Mul(a, b, c any) Atom { return builtinAtom(ast.BMul, a, b, c) }

// Div constrains a/b=c (truncated).
func Div(a, b, c any) Atom { return builtinAtom(ast.BDiv, a, b, c) }

// Mod constrains a%b=c.
func Mod(a, b, c any) Atom { return builtinAtom(ast.BMod, a, b, c) }

// Eq constrains a=b (either side may be solved from the other).
func Eq(a, b any) Atom { return builtinAtom(ast.BEq, a, b) }

// Ne filters a≠b.
func Ne(a, b any) Atom { return builtinAtom(ast.BNe, a, b) }

// Lt filters a<b.
func Lt(a, b any) Atom { return builtinAtom(ast.BLt, a, b) }

// Le filters a<=b.
func Le(a, b any) Atom { return builtinAtom(ast.BLe, a, b) }

// Gt filters a>b.
func Gt(a, b any) Atom { return builtinAtom(ast.BGt, a, b) }

// Ge filters a>=b.
func Ge(a, b any) Atom { return builtinAtom(ast.BGe, a, b) }

// Aggregation kinds re-exported for rule construction.
const (
	Count = ast.AggCount
	Sum   = ast.AggSum
	Min   = ast.AggMin
	Max   = ast.AggMax
)

// Rule adds head :- body. Variables are scoped to the rule.
func (p *Program) Rule(head Atom, body ...Atom) error {
	return p.rule(head, ast.AggSpec{}, body)
}

// MustRule is Rule that panics on error.
func (p *Program) MustRule(head Atom, body ...Atom) {
	if err := p.Rule(head, body...); err != nil {
		panic(err)
	}
}

// AggRule adds an aggregation rule: the head variable at headPos receives
// kind aggregated over the body variable `over` (ignored for Count), grouped
// by the remaining head variables.
func (p *Program) AggRule(head Atom, headPos int, kind ast.AggKind, over *Var, body ...Atom) error {
	spec := ast.AggSpec{Kind: kind, HeadPos: headPos}
	return p.rule(head, spec, body, over)
}

// MustAggRule is AggRule that panics on error.
func (p *Program) MustAggRule(head Atom, headPos int, kind ast.AggKind, over *Var, body ...Atom) {
	if err := p.AggRule(head, headPos, kind, over, body...); err != nil {
		panic(err)
	}
}

func (p *Program) rule(head Atom, spec ast.AggSpec, body []Atom, over ...*Var) error {
	if p.frozen {
		return fmt.Errorf("core: cannot add rules after Run — the rule set froze at the first Run (facts may still be added between runs; create a new Program for a different rule set)")
	}
	vars := map[*Var]ast.VarID{}
	var names []string
	conv := func(a Atom) (ast.Atom, error) {
		out := ast.Atom{Kind: a.kind, Pred: a.pred, Builtin: a.builtin}
		for _, t := range a.terms {
			switch v := t.(type) {
			case *Var:
				id, ok := vars[v]
				if !ok {
					id = ast.VarID(len(names))
					vars[v] = id
					names = append(names, v.name)
				}
				out.Terms = append(out.Terms, ast.V(id))
			case int:
				if v < 0 || v > math.MaxInt32 {
					return ast.Atom{}, fmt.Errorf("core: integer constant %d out of the non-negative 32-bit domain", v)
				}
				out.Terms = append(out.Terms, ast.C(storage.Value(v)))
			case string:
				out.Terms = append(out.Terms, ast.C(p.cat.Symbols.Intern(v)))
			default:
				return ast.Atom{}, fmt.Errorf("core: unsupported term type %T (want *Var, int, or string)", t)
			}
		}
		return out, nil
	}
	h, err := conv(head)
	if err != nil {
		return err
	}
	r := &ast.Rule{Head: h, Agg: spec}
	for _, a := range body {
		ba, err := conv(a)
		if err != nil {
			return err
		}
		r.Body = append(r.Body, ba)
	}
	if spec.Kind != ast.AggNone && spec.Kind != ast.AggCount {
		if len(over) == 0 || over[0] == nil {
			return fmt.Errorf("core: %v aggregation needs an over-variable", spec.Kind)
		}
		id, ok := vars[over[0]]
		if !ok {
			return fmt.Errorf("core: aggregation variable %s does not occur in the rule", over[0].name)
		}
		r.Agg.OverVar = id
	}
	r.NumVars = len(names)
	r.VarNames = names
	return p.prog.AddRule(r)
}

// Fact inserts a ground fact. Arguments as in Relation.A, minus variables.
func (r *Relation) Fact(args ...any) error {
	tuple, err := r.encode(args)
	if err != nil {
		return err
	}
	r.p.addFact(r.id, tuple)
	return nil
}

// encode converts Fact-style arguments to a stored tuple (shared with the
// transaction builder in stream.go).
func (r *Relation) encode(args []any) ([]storage.Value, error) {
	if len(args) != r.arity {
		return nil, fmt.Errorf("core: %s/%d fact with %d arguments", r.name, r.arity, len(args))
	}
	tuple := make([]storage.Value, r.arity)
	for i, a := range args {
		switch v := a.(type) {
		case int:
			if v < 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("core: integer constant %d out of the non-negative 32-bit domain", v)
			}
			tuple[i] = storage.Value(v)
		case storage.Value:
			tuple[i] = v
		case string:
			tuple[i] = r.p.cat.Symbols.Intern(v)
		default:
			return nil, fmt.Errorf("core: unsupported fact value %T", a)
		}
	}
	return tuple, nil
}

// MustFact is Fact that panics on error.
func (r *Relation) MustFact(args ...any) {
	if err := r.Fact(args...); err != nil {
		panic(err)
	}
}

// FactTuple inserts a pre-encoded tuple (fast path for dataset loaders).
func (r *Relation) FactTuple(t []storage.Value) { r.p.addFact(r.id, t) }

// Len returns the number of derived tuples (after a Run).
func (r *Relation) Len() int { return r.p.cat.Pred(r.id).Derived.Len() }

// Each visits every derived tuple.
func (r *Relation) Each(f func(t []storage.Value) bool) {
	r.p.cat.Pred(r.id).Derived.Each(f)
}

// Contains reports whether the derived relation holds the tuple (arguments
// as in Fact).
func (r *Relation) Contains(args ...any) bool {
	t, ok := lookupTuple(r.p.cat.Symbols, args)
	return ok && r.p.cat.Pred(r.id).Derived.Contains(t)
}

// lookupTuple encodes Contains arguments without interning anything: an int
// outside the non-negative 32-bit domain (negative ids are symbols), an
// unknown symbol or an unsupported type names no stored tuple, so ok is
// false.
func lookupTuple(syms *storage.SymbolTable, args []any) (t []storage.Value, ok bool) {
	t = make([]storage.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			if v < 0 || v > math.MaxInt32 {
				return nil, false
			}
			t[i] = storage.Value(v)
		case storage.Value:
			t[i] = v
		case string:
			if t[i], ok = syms.Lookup(v); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return t, true
}

// AOTStage selects how much information the ahead-of-time ("macro", §VI-C)
// optimization may use when freezing the initial join orders before timed
// execution begins.
type AOTStage uint8

const (
	// AOTNone leaves rule-author atom orders untouched.
	AOTNone AOTStage = iota
	// AOTRulesOnly reorders using the selectivity heuristic alone (rule
	// schema known, fact cardinalities not).
	AOTRulesOnly
	// AOTFactsAndRules reorders using the loaded facts' cardinalities.
	AOTFactsAndRules
)

// Options configures one Run.
type Options struct {
	// JIT configures runtime optimization; a zero value (BackendOff) runs
	// the pure interpreter. Production runs off or lambda. The other
	// backends (irgen, bytecode, quotes) are the fixtures of the paper's
	// code-generation comparison (§V-C, Figs 5–9): only Run accepts them,
	// and only without a worker pool (Shards > 1, ParallelUnions,
	// AdaptiveFanout); Serve, Apply and those Runs return an error naming
	// the backend and the setting.
	JIT jit.Config
	// Indexed builds hash indexes on every join/filter column before
	// execution (paper §IV, Index selection). Registration is permanent for
	// the Program's lifetime.
	Indexed bool
	// CompositeIndexes additionally registers one composite index per
	// multi-column search signature occurring in rule bodies (the auto-
	// index-selection direction §IV cites). Implies nothing without Indexed.
	CompositeIndexes bool
	// AOT applies the join-order sort ahead of time, before the timed run.
	AOT AOTStage
	// AOTStats overrides the statistics source for AOT reordering (e.g. a
	// profile captured by a previous run, as in Soufflé's auto-tuner).
	// Non-nil implies AOT even when AOT is AOTNone.
	AOTStats stats.Source
	// Naive evaluates without the semi-naive delta split (baseline engines).
	Naive bool
	// EliminateAliases runs the static alias-removal rewrite (§V-A).
	EliminateAliases bool
	// Timeout aborts the run after the given duration; Run then returns
	// interp.ErrCancelled (benchmarks report the configuration as DNF).
	// Zero means no limit.
	Timeout time.Duration
	// ParallelUnions evaluates each iteration's independent rules
	// concurrently on a bounded worker pool with per-worker append-only lists
	// merged at iteration barriers — the parallelization the Known/New delta
	// split enables (§V-D). Each iteration decides its own fan-out from the
	// live delta statistics: one whose total delta is under FanoutThreshold
	// runs on the sequential path (no task spawn, no list merge — the
	// small-delta tail every recursive query ends in), a larger one sizes its
	// task count to the delta volume, the worker count and Shards. With a
	// JIT backend attached the pool's tasks run morsel-parameterized
	// compiled units where the controller has one ready and interpret
	// otherwise; false is the sequential fallback.
	ParallelUnions bool
	// Workers bounds the parallel pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Shards is the most tasks each rule of a parallel iteration fans out
	// as: each task reads a morsel of the rule's δ, a contiguous row range
	// (task i of n reads rows [L·i/n, L·(i+1)/n) of its L rows), so the
	// tasks split the work, never the data. Rule-granular parallelism is
	// bounded by rule count; with Shards > 1 a single huge recursive rule
	// (the transitive-closure shape) also saturates the worker pool —
	// parallelism bounded by data size. Implies ParallelUnions, and with it
	// the per-iteration fan-out decision; <= 1 fans out by rule only.
	//
	// Storage has one layout: δ stays flat, a view of Derived's newest rows
	// (so Old, Derived less δ, stays exact), and the workers only test
	// membership in Derived. With the lambda backend attached, its units
	// read δ through the same surface the interpreter does
	// (storage.Relation.Scan, ScanKey) and the pool's tasks run
	// morsel-parameterized lambda units. Worker lists fold at each
	// iteration barrier through the sinks' Emit, sequentially and in task
	// order: one probe of Derived per listed row, the pool's only exact
	// deduplication.
	Shards int
	// AdaptiveFanout's one remaining effect is to select 8 tasks per rule
	// (and with it a parallel run) when Shards is unset: every parallel run
	// takes the per-iteration fan-out decision. Prefer Shards: 8.
	AdaptiveFanout bool
	// FanoutThreshold is the sequential-path delta bound of the fan-out
	// decision every parallel run takes; <= 0 selects the interpreter
	// default (256). It is the escape hatch for tests and ablations: at 1
	// every non-empty iteration fans out, to min(total delta rows, Shards)
	// tasks per rule whenever Shards <= 4 x the worker count.
	FanoutThreshold int
	// Histograms maintains per-column value-distribution histograms on every
	// planned join column (incrementally, inside the storage mutation paths,
	// like cardinalities and distinct counts) and switches the optimizer's
	// atom ordering from the pure cardinality sort to an estimated
	// join-output size using the measured histogram overlap of join-column
	// pairs. The estimate is recorded on each built plan
	// (interp.Plan.EstRows) and totalled in Result.Interp.EstimatedRows.
	Histograms bool
	// SharedPlans keys a JIT backend's compiled-unit cache into the
	// Program-lifetime store (Program.PlanStore) instead of a per-Run cache:
	// repeated runs and incremental fact batches start warm (cross-run hits
	// reported in Result.Units), and re-entering a previously compiled
	// cardinality regime reuses the stored unit instead of recompiling. The
	// interpreter caches no plans: without a JIT an interpreted subquery
	// plans at every execution, shared store or not.
	SharedPlans bool
	// Materialize enables materialized-epoch serving (Program.Serve only;
	// Run ignores it): the first query on each published epoch runs the
	// fixpoint once (single-flight across sessions), its derived rows are
	// pinned into the epoch and its post-fixpoint statistics captured, and
	// every later query on that epoch — and every session opened after —
	// answers by lookup instead of re-deriving. Ingest/Publish invalidates
	// by epoch flip; for monotone programs the next epoch's materialization
	// warm-starts from the previous fixpoint plus the ingested delta. See
	// doc.go §Serving.
	Materialize bool
	// CacheDir is a materializing Serve's checkpoint directory (doc.go
	// §Checkpoints): each epoch fixpoint a query derives is written there,
	// and a later Serve over the same rule program and ground facts adopts
	// it as its first epoch's. Run, Apply and a plain Serve refuse it.
	CacheDir string
}

// Result reports one Run's outcome.
type Result struct {
	Duration time.Duration
	Interp   interp.Stats
	JIT      jit.Stats
	// Plans always reads zero: the interpreter caches no plans. Kept
	// because perf/ reads it.
	Plans plancache.Stats
	// Units reports this run's compiled-unit cache activity when a JIT
	// backend ran: Hits are unit reuses, CrossRunHits (under SharedPlans)
	// units resolved from earlier runs without recompiling.
	Units plancache.Stats
	// TotalFacts is the number of derived tuples across all relations.
	TotalFacts int
}

// Run executes the program to fixpoint under opts. Repeated Runs are
// independent: derived state is reset to the ground-fact baseline captured
// at the first Run. Concurrent Run calls serialize on the Program's run
// mutex — they share one catalog, so only one may own it at a time; for
// genuinely concurrent evaluation open snapshot sessions via Serve.
func (p *Program) Run(opts Options) (*Result, error) {
	opts, err := resolveOptions(opts, "Run")
	if err != nil {
		return nil, err
	}
	prog, root, err := p.lowered(opts)
	if err != nil {
		return nil, err
	}

	p.runMu.Lock()
	defer p.runMu.Unlock()
	return p.runLocked(prog, root, opts)
}

// resolveOptions applies the implications between Options fields for one
// entry point (call is "Run", "Apply" or "Serve") and rejects a fixture JIT
// backend outside a plain Run (Options.JIT).
func resolveOptions(opts Options, call string) (Options, error) {
	// Histogram-aware ordering applies everywhere a join order is decided:
	// AOT staging, retraction and the JIT's compile-side reorder all read
	// the same optimizer options. Sources without histogram
	// data (Unit, Frozen) simply keep the constant-selectivity fallback.
	if opts.Histograms {
		opts.JIT.Optimizer.UseHistograms = true
	}
	// Serving shares units between sessions through the Program's store.
	if call == "Serve" {
		opts.SharedPlans = true
	}
	if opts.CacheDir != "" && (call != "Serve" || !opts.Materialize) {
		return opts, fmt.Errorf("core: %s refuses CacheDir: it is the checkpoint directory of a Serve with Materialize", call)
	}
	if b := opts.JIT.Backend; b.Fixture() {
		setting := "under " + call
		switch {
		case call != "Run":
		case opts.Shards > 1:
			setting = fmt.Sprintf("with Shards %d", opts.Shards)
		case opts.ParallelUnions:
			setting = "with ParallelUnions"
		case opts.AdaptiveFanout:
			setting = "with AdaptiveFanout"
		default:
			return opts, nil
		}
		return opts, fmt.Errorf("core: JIT backend %s is a Run-only paper fixture and cannot run %s (use off or lambda)", b, setting)
	}
	return opts, nil
}

// runLocked is the body of Run under runMu — also the cold-recompute path of
// Apply (stream.go), which applies a transaction's ground mutations to the
// baseline first and then derives from scratch.
func (p *Program) runLocked(prog *ast.Program, root *ir.ProgramOp, opts Options) (*Result, error) {
	p.captureBaselineLocked()

	// Each Run is its own epoch boundary. The unit-store generation advances
	// with the catalog epoch — not with query execution — so hits on entries
	// surviving from an earlier boundary read as cross-run reuse. Serving
	// sessions share one boundary per published epoch instead (serve.go):
	// queries inside an epoch never bump, so two sessions on one epoch
	// cannot double-bump and misattribute CrossRunHits.
	p.cat.AdvanceEpoch()
	var store *plancache.Store
	if opts.SharedPlans {
		store = p.PlanStore()
		store.BumpGeneration()
	}

	eng, err := newExecEngine(p.cat, prog, root, ir.IndexUses(root), opts, store, stats.Catalog{Cat: p.cat})
	if err != nil {
		return nil, err
	}
	defer eng.close()
	defer eng.arm(opts.Timeout)()
	res, err := eng.query(true)
	if err == nil {
		p.haveFixpoint = true
	}
	return res, err
}

// lowered applies the static rewrites and lowers the rule program to IR.
func (p *Program) lowered(opts Options) (*ast.Program, *ir.ProgramOp, error) {
	prog := p.prog
	if opts.EliminateAliases {
		clone := ast.NewProgram(p.cat)
		for _, r := range prog.Rules {
			clone.Rules = append(clone.Rules, r.Clone())
		}
		clone.EliminateAliases()
		prog = clone
	}
	root, err := lowerRoot(prog, opts)
	if err != nil {
		return nil, nil, err
	}
	return prog, root, nil
}

// captureBaselineLocked freezes the rule set and records the ground-fact
// baseline at the first run, and rewinds derived state to that baseline on
// later ones. Callers hold runMu — this is the state the run mutex exists
// to protect (unguarded concurrent Runs raced here and silently corrupted
// the baseline lengths).
func (p *Program) captureBaselineLocked() {
	p.ensureFrozenLocked()
	p.ensureBaseline()
	p.baselineClean = false // the run below derives new rows
	p.haveFixpoint = false  // until that run completes
}

// ensureFrozenLocked freezes the rule set and captures the ground baseline
// if no Run, Apply or Serve has done so yet. Callers hold runMu.
func (p *Program) ensureFrozenLocked() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.baseLens = make([]int, p.cat.NumPreds())
	for i, pd := range p.cat.Preds() {
		p.baseLens[i] = pd.Derived.Len()
	}
	p.baselineClean = true
}

// LoadSource parses Soufflé-flavoured Datalog text into the program:
// declarations, facts, and rules (see the parser package for the grammar).
func (p *Program) LoadSource(src string) error {
	if p.frozen {
		return fmt.Errorf("core: cannot load source after Run — the rule set froze at the first Run (facts may still be added between runs; create a new Program for a different rule set)")
	}
	res, err := parser.Parse(src, p.cat)
	if err != nil {
		return err
	}
	p.prog.Rules = append(p.prog.Rules, res.Program.Rules...)
	return nil
}

// Format renders a stored value for output (symbol name or integer).
func (p *Program) Format(v storage.Value) string { return p.cat.Symbols.Format(v) }
