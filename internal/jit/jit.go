// Package jit implements Carac's just-in-time optimizing compiler (paper
// §V-B2/§V-B3): a Controller that sits on the interpreter's safe points and
// decides, per IROp node of the configured granularity, whether to reuse a
// compiled unit, compile (blocking or asynchronously on a separate compile
// goroutine), deoptimize back to interpretation, or — for the IRGenerator
// target — simply regenerate the IR in place with freshly reordered atoms.
//
// The compilation targets (paper §V-C) plug in behind one interface:
// quotes (staged typed expression trees, safe and expressive, costly),
// bytecode (flat VM programs, cheap and unchecked), lambda (stitched
// precompiled closures), and irgen (IR rewriting, no codegen at all).
// Production runs lambda; irgen, bytecode and quotes are the fixtures that
// reproduce the paper's backend comparison (Figs 5–9), and core runs them
// only under a plain sequential Program.Run (core.Options.JIT).
//
// A "freshness" test gates recompilation: a unit is reused while the live
// cardinalities of the relations it joins have not drifted beyond a relative
// threshold since it was compiled.
//
// The Controller additionally implements interp.ShardCompiler for the lambda
// target: under the parallel executor each iteration's morsel tasks run
// morsel-parameterized lambda units — each reads its row range of the flat
// δ, with derivations appended to per-worker lists and folded at the merge
// barrier through the sinks' Emit — so attaching a JIT does not forfeit the
// pooled execution machinery.
package jit

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit/bytecode"
	"carac/internal/jit/lambda"
	"carac/internal/jit/quotes"
	"carac/internal/optimizer"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Backend selects the compilation target.
type Backend uint8

const (
	// BackendOff disables the JIT entirely (pure interpretation).
	BackendOff Backend = iota
	// BackendIRGen regenerates IR atom orders in place and keeps
	// interpreting — the cheapest target (paper §V-C4).
	BackendIRGen
	// BackendLambda stitches precompiled closures (paper §V-C3).
	BackendLambda
	// BackendBytecode emits flat VM programs (paper §V-C2).
	BackendBytecode
	// BackendQuotes stages typed expression trees with a validation pass
	// (paper §V-C1). The only target supporting snippet compilation
	// alongside lambda.
	BackendQuotes
)

// String returns the backend's name.
func (b Backend) String() string {
	switch b {
	case BackendOff:
		return "off"
	case BackendIRGen:
		return "irgen"
	case BackendLambda:
		return "lambda"
	case BackendBytecode:
		return "bytecode"
	case BackendQuotes:
		return "quotes"
	default:
		return "?"
	}
}

// Fixture reports whether b is one of the paper's code-generation fixtures
// (irgen, bytecode, quotes), which core runs only under a plain sequential
// Run (core.Options.JIT).
func (b Backend) Fixture() bool { return b != BackendOff && b != BackendLambda }

// Granularity is the IROp height at which compilation triggers (paper Fig 4
// / §V-B2): higher nodes compile less often over larger code with staler
// statistics.
type Granularity uint8

const (
	// GranProgram compiles the whole program once.
	GranProgram Granularity = iota
	// GranDoWhile compiles each stratum loop.
	GranDoWhile
	// GranUnionAll compiles per relation per iteration (pink Union*).
	GranUnionAll
	// GranUnionRule compiles per rule definition per iteration (yellow Union).
	GranUnionRule
	// GranSPJ compiles per n-way join — the freshest statistics and the most
	// compilations.
	GranSPJ
)

// String returns the granularity's Fig 4 name.
func (g Granularity) String() string {
	switch g {
	case GranProgram:
		return "ProgramOp"
	case GranDoWhile:
		return "DoWhileOp"
	case GranUnionAll:
		return "UnionOp*"
	case GranUnionRule:
		return "UnionOp"
	case GranSPJ:
		return "SPJ"
	default:
		return "?"
	}
}

// OpKind maps the granularity to the IR node kind it matches.
func (g Granularity) OpKind() ir.OpKind {
	switch g {
	case GranProgram:
		return ir.KProgram
	case GranDoWhile:
		return ir.KDoWhile
	case GranUnionAll:
		return ir.KUnionAll
	case GranUnionRule:
		return ir.KUnionRule
	default:
		return ir.KSPJ
	}
}

// Config tunes the JIT.
type Config struct {
	Backend     Backend
	Granularity Granularity
	// Async compiles on a separate goroutine while interpretation continues;
	// otherwise compilation blocks at the safe point.
	Async bool
	// Snippet compiles only the node's own control structure and splices
	// interpreter continuations for children (quotes and lambda targets).
	Snippet bool
	// FreshnessThreshold is the maximum relative cardinality drift tolerated
	// before a compiled unit is considered stale. <= 0 picks the default 0.5.
	FreshnessThreshold float64
	// Optimizer configures join reordering.
	Optimizer optimizer.Options
	// CompileLatency adds a simulated fixed cost to every compiler
	// invocation, emulating heavyweight external compilers (used only by the
	// baseline-engine comparison; 0 for all Carac measurements).
	CompileLatency time.Duration
}

// Stats reports JIT activity.
type Stats struct {
	Compilations int64
	CompileTime  time.Duration
	CacheHits    int64
	StaleDrops   int64
	Reorders     int64
	Switchovers  int64
	Failures     int64
}

// compiledUnit is the cached artifact of one compilation: the runnable
// thunk, or a failure marker kept so a broken subquery is not re-fed to the
// compiler on every safe-point visit while its statistics stay fresh. The
// cardinality fingerprint lives on the plan-store entry, not here.
type compiledUnit struct {
	run    func(in *interp.Interp) error
	failed bool
}

// compiledShardUnit is the cached artifact of one morsel-parameterized task
// compilation (interp.ShardUnit), with the same failure-marker convention.
type compiledShardUnit struct {
	run    interp.ShardUnit
	failed bool
}

// shardUnitTag prefixes the KeyForOp fingerprint of morsel-parameterized
// task units, so they never collide with sequential units' backend/snippet
// tags. 0xfd is outside the Backend range.
const shardUnitTag = 0xfd

// inflight guards one unit key against duplicate compile requests: set by
// the interpreter goroutine when a request is queued, cleared by whichever
// goroutine finishes the compile.
type inflight struct {
	compiling atomic.Bool
}

type compileReq struct {
	fl       *inflight
	key      plancache.Key
	clone    ir.Op
	cards    []int
	counters []uint64
	stats    stats.Source
	// shard marks a morsel-parameterized task-unit request: the clone is a
	// rule subtree compiled via the shard backend and published into the
	// shard-unit view instead of the sequential one.
	shard bool
}

type backendCompiler interface {
	Name() string
	Compile(op ir.Op, cat *storage.Catalog, snippet bool) (func(in *interp.Interp) error, error)
}

// Controller implements interp.Controller. Create with New, attach to an
// interpreter, and Close when the run finishes.
type Controller struct {
	cfg      Config
	cat      *storage.Catalog
	granKind ir.OpKind
	compiler backendCompiler
	// policy is the drift-gated freshness policy: a unit is reused while the
	// cardinalities it was compiled against have not drifted beyond the
	// threshold.
	policy plancache.Policy

	// units is the compiled-unit view of the plan store: entries are keyed
	// by structural subtree fingerprint (plancache.KeyForOp) instead of op
	// identity, one per cardinality regime, and gated by policy. With
	// NewShared the view windows the Program-lifetime store, so a later Run
	// resolves to this run's units without recompiling.
	units *plancache.Cache[*compiledUnit]
	// sunits is the morsel-parameterized task-unit view over the same store
	// and key class: entries are keyed by the shard-tagged rule-subtree
	// fingerprint. A task unit reads any morsel of any task count, so warm
	// reruns reuse task units whatever their Shards count.
	sunits *plancache.Cache[*compiledShardUnit]
	// keys memoizes each op's structural unit key for this run (op identity
	// is stable within one run's IR tree); shardKeys is the task-unit
	// analogue.
	keys      map[ir.Op]plancache.Key
	shardKeys map[ir.Op]plancache.Key
	// pending tracks in-flight compilations per unit key. Only the
	// interpreter goroutine mutates the map; the async worker clears flags
	// through the pointers carried in compile requests.
	pending map[plancache.Key]*inflight

	parents map[ir.Op]ir.Op

	// irgen freshness state: cardinalities at last reorder per subquery.
	reorderCards map[*ir.SPJOp][]int

	inUnit int // depth inside compiled-unit execution (single goroutine)

	// readyGen is bumped by the async worker whenever a new unit is
	// published, so the interpreter can yield out of a long-running subquery
	// and switch over immediately (interp.Yielder).
	readyGen atomic.Int64
	// consumedGen / yieldMiss* cache signal handling on the interpreter
	// goroutine, avoiding per-row ancestor walks.
	consumedGen  int64
	yieldMissOp  ir.Op
	yieldMissGen int64

	reqs   chan compileReq
	wg     sync.WaitGroup
	closed bool

	mu    sync.Mutex // guards stats (worker and interp goroutines)
	stats Stats
}

// New builds a controller for one run of root over a private unit store.
// The parent index enables mid-stream switchover into asynchronously
// compiled ancestors.
func New(cat *storage.Catalog, root ir.Op, cfg Config) *Controller {
	return NewShared(cat, root, cfg, nil)
}

// NewShared is New over an external plan store: compiled units land in (and
// are served from) store's unit view, so a store that outlives this run —
// the Program-lifetime store under core.Options.SharedPlans — hands a later
// Run this run's units without recompiling. A nil store selects a private
// per-run one.
func NewShared(cat *storage.Catalog, root ir.Op, cfg Config, store *plancache.Store) *Controller {
	if cfg.FreshnessThreshold <= 0 {
		cfg.FreshnessThreshold = 0.5
	}
	if store == nil {
		store = plancache.NewStore(0)
	}
	pol := plancache.Policy{Threshold: cfg.FreshnessThreshold}
	c := &Controller{
		cfg:          cfg,
		cat:          cat,
		granKind:     cfg.Granularity.OpKind(),
		policy:       pol,
		units:        plancache.View[*compiledUnit](store, plancache.ViewConfig{Class: plancache.ClassUnits, Policy: pol}),
		sunits:       plancache.View[*compiledShardUnit](store, plancache.ViewConfig{Class: plancache.ClassUnits, Policy: pol}),
		keys:         make(map[ir.Op]plancache.Key),
		shardKeys:    make(map[ir.Op]plancache.Key),
		pending:      make(map[plancache.Key]*inflight),
		parents:      make(map[ir.Op]ir.Op),
		reorderCards: make(map[*ir.SPJOp][]int),
	}
	indexParents(root, nil, c.parents)
	switch cfg.Backend {
	case BackendLambda:
		c.compiler = lambda.Compiler{}
	case BackendBytecode:
		c.compiler = bytecode.Compiler{}
	case BackendQuotes:
		c.compiler = quotes.NewCompiler()
	}
	if cfg.Async && c.compiler != nil {
		c.reqs = make(chan compileReq, 64)
		c.wg.Add(1)
		go c.worker()
	}
	return c
}

func indexParents(op ir.Op, parent ir.Op, idx map[ir.Op]ir.Op) {
	if parent != nil {
		idx[op] = parent
	}
	ir.EachChild(op, func(ch ir.Op) { indexParents(ch, op, idx) })
}

// Close shuts the compile worker down. Safe to call once per controller.
func (c *Controller) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.reqs != nil {
		close(c.reqs)
		c.wg.Wait()
	}
}

// Stats returns a snapshot of JIT activity.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// UnitStats returns the unit view's plan-store counters (cumulative for the
// store backing this controller — per-run when the store is private).
func (c *Controller) UnitStats() plancache.Stats { return c.units.Stats() }

// keyFor memoizes the op's structural unit key. Backend and snippet mode
// prefix the signature: units produced differently must never collide, even
// inside one shared store serving runs with different JIT configurations.
func (c *Controller) keyFor(op ir.Op) plancache.Key {
	if k, ok := c.keys[op]; ok {
		return k
	}
	snippet := byte(0)
	if c.cfg.Snippet {
		snippet = 1
	}
	k := plancache.KeyForOp(op, byte(c.cfg.Backend), snippet)
	c.keys[op] = k
	return k
}

// countersFor snapshots the drift counters of every relation read by
// subqueries beneath op — the exactness pre-test paired with cardsFor.
func (c *Controller) countersFor(op ir.Op) []uint64 {
	var out []uint64
	ir.Walk(op, func(o ir.Op) {
		if spj, ok := o.(*ir.SPJOp); ok {
			out = stats.AppendCounterVector(out, spj, c.cat)
		}
	})
	return out
}

// inflightFor returns the key's compile guard, creating it on first use
// (interpreter goroutine only).
func (c *Controller) inflightFor(k plancache.Key) *inflight {
	fl := c.pending[k]
	if fl == nil {
		fl = &inflight{}
		c.pending[k] = fl
	}
	return fl
}

func (c *Controller) bump(f func(s *Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Enter is the safe-point hook (interp.Controller).
func (c *Controller) Enter(op ir.Op, in *interp.Interp) func() error {
	if c.cfg.Backend == BackendOff || c.inUnit > 0 {
		return nil
	}
	// Mid-stream switchover: if an ancestor's asynchronous compilation
	// finished, call into the compiled code "at the exact spot the
	// interpreter left off" (paper §V-B2). Fixpoint monotonicity makes the
	// ancestor unit safe to run from the current storage state.
	if c.cfg.Async && c.compiler != nil {
		if th := c.ancestorSwitch(op, in); th != nil {
			return th
		}
	}
	if op.Kind() != c.granKind {
		return nil
	}

	if c.cfg.Backend == BackendIRGen {
		c.regenerate(op)
		return nil
	}
	if c.compiler == nil {
		return nil
	}

	key := c.keyFor(op)
	fl := c.inflightFor(key)
	if fl.compiling.Load() {
		// Async compile in flight: keep interpreting. Checked before the
		// cardinality walks and the store lookup so the safe-point hot path
		// stays a map read plus an atomic load while the worker runs (and
		// the wait does not register as unit-view misses).
		return nil
	}
	cards := c.cardsFor(op)
	counters := c.countersFor(op)
	// Unit lookup through the shared store: a hit is the freshness pass (the
	// least-drift policy-fresh unit of any regime) — including units stored
	// by an earlier Run of the same Program when the store is shared; a stale
	// return is the old deoptimize-and-regenerate cue; failed entries are
	// remembered so a broken subquery is retried only once its statistics
	// drift enough that a different (possibly legal) plan would result.
	if cu, ok, stale := c.units.Lookup(key, counters, cards); ok {
		if cu.failed {
			return nil
		}
		c.bump(func(s *Stats) { s.CacheHits++ })
		return c.wrap(cu, in)
	} else if stale {
		c.bump(func(s *Stats) { s.StaleDrops++ })
	}
	req := c.buildReq(fl, key, op, cards, counters)
	if c.cfg.Async {
		fl.compiling.Store(true)
		select {
		case c.reqs <- req:
		default:
			fl.compiling.Store(false) // queue full: try again next visit
		}
		return nil
	}
	if cu := c.runCompile(req); cu != nil && !cu.failed {
		return c.wrap(cu, in)
	}
	return nil
}

func (c *Controller) wrap(cu *compiledUnit, in *interp.Interp) func() error {
	return func() error {
		c.inUnit++
		defer func() { c.inUnit-- }()
		return cu.run(in)
	}
}

func (c *Controller) ancestorSwitch(op ir.Op, in *interp.Interp) func() error {
	for p := c.parents[op]; p != nil; p = c.parents[p] {
		if p.Kind() != c.granKind {
			continue
		}
		key := c.keyFor(p)
		if !c.units.Contains(key) {
			continue // no unit yet: skip the cardinality walk
		}
		cu, ok := c.units.Peek(key, c.cardsFor(p))
		if !ok || cu.failed {
			continue
		}
		c.bump(func(s *Stats) { s.Switchovers++ })
		return c.wrap(cu, in)
	}
	return nil
}

// regenerate is the IRGenerator target: reorder every subquery beneath op in
// place (freshness-gated) and let interpretation continue on the new IR.
func (c *Controller) regenerate(op ir.Op) {
	live := stats.Catalog{Cat: c.cat}
	ir.Walk(op, func(o ir.Op) {
		spj, ok := o.(*ir.SPJOp)
		if !ok {
			return
		}
		cards := stats.CardVector(spj, live)
		if last, seen := c.reorderCards[spj]; seen {
			if c.policy.Fresh(last, cards) {
				return
			}
		}
		c.reorderCards[spj] = cards
		changed, err := optimizer.Reorder(spj, live, c.cfg.Optimizer)
		if err != nil {
			return // keep the existing legal order
		}
		if changed {
			c.bump(func(s *Stats) { s.Reorders++ })
			// Record the vector in the new atom order so future drift
			// comparisons are apples-to-apples.
			c.reorderCards[spj] = stats.CardVector(spj, live)
		}
	})
}

// cardsFor snapshots the cardinality vector of every subquery beneath op in
// traversal order — the freshness fingerprint.
func (c *Controller) cardsFor(op ir.Op) []int {
	live := stats.Catalog{Cat: c.cat}
	var cards []int
	ir.Walk(op, func(o ir.Op) {
		if spj, ok := o.(*ir.SPJOp); ok {
			cards = append(cards, stats.CardVector(spj, live)...)
		}
	})
	return cards
}

// buildReq snapshots everything compilation needs so the worker never
// touches live mutable state: a deep clone of the subtree, the cardinality
// and counter fingerprints the published unit will be keyed under, and a
// frozen statistics source.
func (c *Controller) buildReq(fl *inflight, key plancache.Key, op ir.Op, cards []int, counters []uint64) compileReq {
	return compileReq{
		fl:       fl,
		key:      key,
		clone:    ir.CloneSubtree(op),
		cards:    cards,
		counters: counters,
		stats:    c.snapshotStats(op),
	}
}

func (c *Controller) snapshotStats(op ir.Op) stats.Source {
	return stats.Freeze(op, stats.Catalog{Cat: c.cat})
}

func (c *Controller) worker() {
	defer c.wg.Done()
	for req := range c.reqs {
		if req.shard {
			c.runShardCompile(req)
		} else {
			c.runCompile(req)
		}
	}
}

// reorderClone reorders every subquery of the cloned subtree with the
// request's frozen statistics, counting the ones whose order changed in
// Stats.Reorders and returning the first planning error.
func (c *Controller) reorderClone(req compileReq) error {
	var firstErr error
	var reorders int64
	ir.Walk(req.clone, func(o ir.Op) {
		if spj, ok := o.(*ir.SPJOp); ok {
			changed, err := optimizer.Reorder(spj, req.stats, c.cfg.Optimizer)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if changed {
				reorders++
			}
		}
	})
	if reorders > 0 {
		c.bump(func(s *Stats) { s.Reorders += reorders })
	}
	return firstErr
}

// accountCompile records one compilation outcome and releases the in-flight
// guard.
func (c *Controller) accountCompile(req compileReq, failed bool, dt time.Duration) {
	c.bump(func(s *Stats) {
		if failed {
			s.Failures++
		} else {
			s.Compilations++
		}
		s.CompileTime += dt
	})
	req.fl.compiling.Store(false)
}

// runCompile reorders the cloned subtree with the frozen statistics and
// hands it to the backend, publishing the result (success or failure marker)
// into the shared unit store under the request's cardinalities.
func (c *Controller) runCompile(req compileReq) *compiledUnit {
	t0 := time.Now()
	if c.cfg.CompileLatency > 0 {
		time.Sleep(c.cfg.CompileLatency)
	}
	firstErr := c.reorderClone(req)
	var run func(in *interp.Interp) error
	if firstErr == nil {
		// Snippet splicing needs a target that can defer control back to the
		// interpreter; bytecode cannot (paper §V-C2), so it always compiles
		// the full subtree.
		run, firstErr = c.compiler.Compile(req.clone, c.cat, c.cfg.Snippet && c.cfg.Backend != BackendBytecode)
	}
	dt := time.Since(t0)
	cu := &compiledUnit{run: run, failed: firstErr != nil}
	c.units.Store(req.key, req.counters, req.cards, cu)
	c.accountCompile(req, cu.failed, dt)
	if c.cfg.Async && !cu.failed {
		c.readyGen.Add(1)
	}
	return cu
}

// runShardCompile is runCompile for morsel-parameterized task units: the
// reordered rule clone goes through lambda's shard compiler and the artifact
// (or failure marker — e.g. an aggregation rule, which stays interpreted)
// lands in the task-unit view. No ready signal: the executor re-resolves at
// every iteration's fan-out point anyway.
func (c *Controller) runShardCompile(req compileReq) *compiledShardUnit {
	t0 := time.Now()
	if c.cfg.CompileLatency > 0 {
		time.Sleep(c.cfg.CompileLatency)
	}
	firstErr := c.reorderClone(req)
	var run interp.ShardUnit
	if firstErr == nil {
		run, firstErr = lambda.Compiler{}.CompileShard(req.clone, c.cat)
	}
	dt := time.Since(t0)
	cu := &compiledShardUnit{run: run, failed: firstErr != nil}
	c.sunits.Store(req.key, req.counters, req.cards, cu)
	c.accountCompile(req, cu.failed, dt)
	return cu
}

// shardKeyFor memoizes the rule's task-unit key: the subtree fingerprint
// under the shard tag — the same fingerprint scheme sequential units use —
// so task units stored by one run resolve in the next (warm reruns
// recompile 0). The Shards count is not part of the key: a unit is invoked
// with its task's lo..hi of n.
func (c *Controller) shardKeyFor(rule *ir.UnionRuleOp) plancache.Key {
	if k, ok := c.shardKeys[rule]; ok {
		return k
	}
	k := plancache.KeyForOp(rule, shardUnitTag)
	c.shardKeys[rule] = k
	return k
}

// ResolveShardUnit implements interp.ShardCompiler: at each iteration's
// sequential fan-out point the parallel driver asks for a compiled task body
// per rule. A policy-fresh unit (the least-drift one of any regime,
// including one stored by an earlier Run over a shared store, at any Shards
// count) is returned for the pool workers to invoke with their morsels; a
// miss triggers compilation — blocking here, or queued to the async worker
// with interpretation covering the meantime — and a failure marker keeps unsupported rules (aggregations)
// interpreted without re-feeding the compiler every iteration. Only the
// lambda target compiles task units: the fixture targets never run under a
// pool (core.Options.JIT), so they decline and the tasks stay interpreted.
func (c *Controller) ResolveShardUnit(rule *ir.UnionRuleOp, in *interp.Interp) interp.ShardUnit {
	if c.cfg.Backend != BackendLambda {
		return nil
	}
	key := c.shardKeyFor(rule)
	fl := c.inflightFor(key)
	if fl.compiling.Load() {
		return nil // async compile in flight: tasks stay interpreted
	}
	cards := c.cardsFor(rule)
	counters := c.countersFor(rule)
	if cu, ok, stale := c.sunits.Lookup(key, counters, cards); ok {
		if cu.failed {
			return nil
		}
		c.bump(func(s *Stats) { s.CacheHits++ })
		return cu.run
	} else if stale {
		c.bump(func(s *Stats) { s.StaleDrops++ })
	}
	req := c.buildReq(fl, key, rule, cards, counters)
	req.shard = true
	if c.cfg.Async {
		fl.compiling.Store(true)
		select {
		case c.reqs <- req:
		default:
			fl.compiling.Store(false) // queue full: try again next iteration
		}
		return nil
	}
	if cu := c.runShardCompile(req); cu != nil && !cu.failed {
		return cu.run
	}
	return nil
}

// ShouldYield implements interp.Yielder: the interpreter polls it from
// inside subquery loops and abandons the join when an asynchronously
// compiled unit covering the current position is ready and fresh.
func (c *Controller) ShouldYield(op ir.Op, in *interp.Interp) bool {
	if !c.cfg.Async || c.inUnit > 0 {
		return false
	}
	g := c.readyGen.Load()
	if g == c.consumedGen {
		return false // no unconsumed publish
	}
	if op == c.yieldMissOp && g == c.yieldMissGen {
		return false // this subquery already checked this signal
	}
	if !c.hasReadyAncestor(op) {
		c.yieldMissOp, c.yieldMissGen = op, g
		return false
	}
	// Consume the signal; the unit itself stays published for Enter.
	c.consumedGen = g
	return true
}

func (c *Controller) hasReadyAncestor(op ir.Op) bool {
	for p := op; p != nil; p = c.parents[p] {
		if p.Kind() != c.granKind {
			continue
		}
		key := c.keyFor(p)
		if !c.units.Contains(key) {
			continue
		}
		if cu, ok := c.units.Peek(key, c.cardsFor(p)); ok && !cu.failed {
			return true
		}
	}
	return false
}

var (
	_ interp.Controller    = (*Controller)(nil)
	_ interp.ShardCompiler = (*Controller)(nil)
)

// ParseBackend converts a backend name to its enum, for CLI use.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "off", "interp", "":
		return BackendOff, nil
	case "irgen":
		return BackendIRGen, nil
	case "lambda":
		return BackendLambda, nil
	case "bytecode":
		return BackendBytecode, nil
	case "quotes":
		return BackendQuotes, nil
	}
	return 0, fmt.Errorf("jit: unknown backend %q", s)
}

// ParseGranularity converts a granularity name to its enum, for CLI use.
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "program":
		return GranProgram, nil
	case "dowhile", "loop":
		return GranDoWhile, nil
	case "unionall", "union*":
		return GranUnionAll, nil
	case "union", "unionrule":
		return GranUnionRule, nil
	case "spj", "join", "":
		return GranSPJ, nil
	}
	return 0, fmt.Errorf("jit: unknown granularity %q", s)
}
