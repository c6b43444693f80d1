package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// This file is the serving layer: concurrent, snapshot-isolated query
// sessions over one Program. The design is reader/writer epochs (in the
// spirit of cloud-native snapshot isolation over a mutating store):
//
//   - An Epoch is an immutable snapshot of the Program's ground-fact state —
//     pinned row views of every Derived relation plus a deep statistics
//     snapshot — taken at a publication boundary.
//   - A Session pins the current epoch and evaluates on a private catalog
//     seeded from it, through the same execution pipeline Run uses
//     (interpreter, optimizer, JIT). Sessions share the Program-lifetime
//     unit store: compiled units are keyed structurally and resolve
//     relations through the executing interpreter's catalog at invocation
//     time, so one session's units serve every other.
//   - Fact ingestion stays single-writer (Server.Ingest, under the
//     Program's run mutex) and becomes visible atomically: Publish rewinds
//     to the ground baseline through the existing delta machinery, advances
//     the catalog epoch and unit-store generation once, pins fresh row
//     views, captures the statistics snapshot, and flips the epoch pointer.
//     Sessions opened before the flip keep reading their pinned epoch —
//     storage-level copy-on-flip keeps those row views intact even as the
//     writer's rewind re-appends over the truncated region.
//
// Intra-query parallelism and inter-session concurrency share one bounded
// worker pool: each query takes what is free (at least one token), so an
// idle server gives a single query the full fan-out while a loaded one
// degrades gracefully to one worker per query.

// Epoch is one published snapshot of a serving Program's ground-fact state.
// It is immutable in what it asserts: later ingestion and publication cannot
// change what its rows or statistics report. Under Options.Materialize an
// epoch additionally carries the program's *derived* fixpoint once the first
// query computes it (mat, set exactly once), so every later query on the
// epoch answers by lookup.
type Epoch struct {
	gen     uint64
	names   []string
	arities []int
	rows    []storage.EpochRows
	stats   *stats.Snapshot
	refs    atomic.Int64

	// prevLens holds the previous epoch's ground-row count per predicate
	// (ground arenas are append-only across epochs, so rows beyond it are
	// exactly the facts ingested since), and prevMat its materialization if
	// one was computed — the warm-start inputs for this epoch's own
	// materialization. Nil/absent on the first epoch.
	prevLens []int
	prevMat  *epochMat
	// deletions marks an epoch whose ingestion window retracted facts
	// (Server.IngestTx). Warm-starting from the previous fixpoint is unsound
	// then even for monotone programs — a deletion can only shrink the
	// fixpoint, which seeded re-derivation cannot express — so such an epoch
	// always derives cold. prevLens/prevMat stay nil as a belt, this flag is
	// the braces (and the regression tests' observable).
	deletions bool
	// mat is the epoch's materialized fixpoint, published once by the
	// single-flight winner of the first query (Options.Materialize).
	mat atomic.Pointer[epochMat]
}

// epochMat is one epoch's materialized derived state: the post-fixpoint
// Derived rows of every predicate (pinned zero-copy from the computing
// session's catalog — the ground rows occupy each relation's prefix), the
// post-fixpoint statistics snapshot stamped with the epoch generation, and
// the oracle fact count every memo-served query reports.
type epochMat struct {
	rows  []storage.EpochRows
	stats *stats.Snapshot
	total int
	warm  bool // built by warm-starting from the previous epoch's fixpoint
}

// Materialized reports whether the epoch's derived fixpoint has been
// computed and pinned (always false when the server does not materialize).
func (e *Epoch) Materialized() bool { return e.mat.Load() != nil }

// MaterializedStats returns the post-fixpoint statistics snapshot of a
// materialized epoch, or nil before materialization.
func (e *Epoch) MaterializedStats() *stats.Snapshot {
	if m := e.mat.Load(); m != nil {
		return m.stats
	}
	return nil
}

// Generation returns the catalog epoch generation this snapshot was
// published at.
func (e *Epoch) Generation() uint64 { return e.gen }

// Stats returns the epoch's deep statistics snapshot (cardinalities,
// distinct counts, histograms — all boundary-consistent).
func (e *Epoch) Stats() *stats.Snapshot { return e.stats }

// Rows returns the pinned ground rows of predicate id.
func (e *Epoch) Rows(id storage.PredID) storage.EpochRows { return e.rows[id] }

// Sessions returns the number of sessions currently pinning this epoch
// (diagnostic; epochs need no explicit reclamation).
func (e *Epoch) Sessions() int64 { return e.refs.Load() }

// workerPool is the server's shared worker-token pool. acquire blocks until
// at least one token is free and then grants up to want of them, so a query
// on an idle server gets its full fan-out while a loaded server converges to
// one worker per concurrent query — total execution goroutines stay bounded
// by the pool size regardless of session count.
type workerPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	wp := &workerPool{free: n}
	wp.cond = sync.NewCond(&wp.mu)
	return wp
}

func (wp *workerPool) acquire(want int) int {
	if want < 1 {
		want = 1
	}
	wp.mu.Lock()
	defer wp.mu.Unlock()
	for wp.free < 1 {
		wp.cond.Wait()
	}
	n := want
	if n > wp.free {
		n = wp.free
	}
	wp.free -= n
	return n
}

func (wp *workerPool) release(n int) {
	wp.mu.Lock()
	wp.free += n
	wp.mu.Unlock()
	wp.cond.Broadcast()
}

// ServeStats counts the serving layer's materialization activity
// (Options.Materialize; all zero otherwise).
type ServeStats struct {
	// MemoHits counts queries answered without running the fixpoint: from
	// the per-epoch query memo, from a single-flight neighbor's in-flight
	// derivation, or from the pinned materialization a session was seeded
	// with at open.
	MemoHits int64
	// MaterializedEpochs counts epochs whose derived fixpoint was computed
	// and pinned; WarmStarts of them were seeded semi-naively from the
	// previous epoch's fixpoint plus the ingested delta instead of deriving
	// from scratch.
	MaterializedEpochs int64
	WarmStarts         int64
	// Derivations counts fixpoint runs performed by serving sessions —
	// single-flight winners and retries after a failed leader.
	Derivations int64
	// Streaming-ingestion counters (Server.IngestTx; zero when only the
	// insert-only Ingest path is used). IngestBatches counts transactions
	// applied, IngestedRows assertion insertions, RowsRetracted ground rows
	// physically removed (count-gated, so redundant retractions don't
	// count), and IngestLatency the cumulative wall time spent applying.
	IngestBatches int64
	IngestedRows  int64
	RowsRetracted int64
	IngestLatency time.Duration
}

// matFlight is one in-flight materialization: the single-flight winner
// derives, everyone else blocks on done and adopts mat (or retries on err).
type matFlight struct {
	done chan struct{}
	mat  *epochMat
	err  error
}

// Server serves concurrent snapshot-isolated sessions over one Program. See
// Program.Serve.
type Server struct {
	p    *Program
	opts Options
	prog *ast.Program  // rewritten rule program, read-only, shared by sessions
	uses []ir.IndexUse // the index uses of every root a session plans
	pool *workerPool
	// mu serializes the write side — Ingest and Publish — on top of the
	// Program's run mutex (which direct Run calls also take).
	mu    sync.Mutex
	epoch atomic.Pointer[Epoch]

	// Materialized-epoch serving state (Options.Materialize). An epoch's
	// fixpoint has one owner, Epoch.mat: a superseded epoch's rows go when
	// its last session and the next epoch's prevMat let go of it, and
	// Publish invalidates by installing a new Epoch. flights holds the
	// single-flight derivation of each epoch that has one running. warmOK
	// gates the warm-start path on program monotonicity.
	warmOK   bool
	flightMu sync.Mutex
	flights  map[*Epoch]*matFlight

	memoHits    atomic.Int64
	matEpochs   atomic.Int64
	warmStarts  atomic.Int64
	derivations atomic.Int64

	ingestBatches   atomic.Int64
	ingestedRows    atomic.Int64
	ingestRetracted atomic.Int64
	ingestNanos     atomic.Int64
	// pendingDeletes records that the open ingestion window retracted facts;
	// consumed by the next publishLocked (guarded by s.mu + p.runMu).
	pendingDeletes bool
}

// Stats returns the server's cumulative serving counters.
func (s *Server) Stats() ServeStats {
	return ServeStats{
		MemoHits:           s.memoHits.Load(),
		MaterializedEpochs: s.matEpochs.Load(),
		WarmStarts:         s.warmStarts.Load(),
		Derivations:        s.derivations.Load(),
		IngestBatches:      s.ingestBatches.Load(),
		IngestedRows:       s.ingestedRows.Load(),
		RowsRetracted:      s.ingestRetracted.Load(),
		IngestLatency:      time.Duration(s.ingestNanos.Load()),
	}
}

// monotoneProgram reports whether every rule is positive and aggregate-free
// — the soundness condition for warm-starting a fixpoint from a previous
// epoch's materialization under additions-only ingestion.
func monotoneProgram(prog *ast.Program) bool {
	for _, r := range prog.Rules {
		if r.Agg.Kind != ast.AggNone {
			return false
		}
		for _, a := range r.Body {
			if a.Kind == ast.AtomNegated {
				return false
			}
		}
	}
	return true
}

// Serve freezes the Program's rule set, publishes its current facts as the
// first epoch, and returns a Server from which any number of goroutines may
// open query sessions. Serving forces SharedPlans: the Program-lifetime
// unit store is the medium through which sessions share compiled units
// (including any compiled by Runs before serving — those hits read as
// cross-run reuse).
//
// The Program stays usable as the ingestion side: add facts via
// Server.Ingest and make them visible with Publish. Direct Run calls remain
// legal between publications (they serialize on the same mutex), but the
// epoch sessions see only advances at Publish.
func (p *Program) Serve(opts Options) (*Server, error) {
	opts, err := resolveOptions(opts, "Serve")
	if err != nil {
		return nil, err
	}
	prog, root, err := p.lowered(opts) // validate lowering before accepting sessions
	if err != nil {
		return nil, err
	}
	// Every session plans the cold root, and under Materialize the warm one
	// too: each registers both roots' index uses on its catalog up front,
	// before its engine's compile thread can read the catalog's statistics.
	uses := ir.IndexUses(root)
	warmOK := opts.Materialize && monotoneProgram(prog) && !opts.Naive
	if warmOK {
		// The warm-start lowering must also be valid up front: a later
		// publish would otherwise surface the error on some unlucky query.
		warmRoot, werr := ir.LowerWarm(prog)
		if werr != nil {
			return nil, werr
		}
		uses = append(uses, ir.IndexUses(warmRoot)...)
	}

	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.ensureFrozenLocked()
	// Register the access artifacts on the Program catalog too, so epoch
	// statistics snapshots carry distinct counts and histograms for the
	// session planners.
	registerArtifacts(p.cat, prog, uses, opts)
	// Load the persistent cache (if configured); the first publish below
	// flushes it back, so even an idle server refreshes the directory's
	// version tag.
	p.ensurePersistLocked(opts)

	s := &Server{
		p:      p,
		opts:   opts,
		prog:   prog,
		uses:   uses,
		pool:   newWorkerPool(effectiveWorkers(opts)),
		warmOK: warmOK,
	}
	if opts.Materialize {
		s.flights = make(map[*Epoch]*matFlight)
	}
	s.publishLocked()
	return s, nil
}

// effectiveWorkers resolves the server's worker-pool size from opts.
func effectiveWorkers(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// queryWants returns how many pool tokens one query asks for: the full
// fan-out for parallel configurations, one for sequential ones.
func queryWants(opts Options) int {
	if opts.ParallelUnions || opts.AdaptiveFanout || opts.Shards > 1 {
		return effectiveWorkers(opts)
	}
	return 1
}

// publishLocked takes the epoch snapshot and flips the pointer. Callers hold
// both s.mu (or are inside Serve) and p.runMu.
func (s *Server) publishLocked() *Epoch {
	p := s.p
	old := s.epoch.Load() // nil on the first publish
	// Rewind any derived rows (e.g. from a direct Run between publications)
	// so the epoch pins exactly the ground-fact state. Pinned views from the
	// previous epoch survive this: the truncation flips the arenas to fresh
	// slabs instead of rewriting the pinned ones in place.
	p.ensureBaseline()
	// One generation bump per published epoch (serving always shares the
	// store): queries never bump, so unit hits inside an epoch read as
	// same-generation reuse and hits on entries from before the boundary as
	// cross-run reuse — however many sessions overlap.
	gen := p.cat.AdvanceEpoch()
	p.PlanStore().BumpGeneration()
	n := p.cat.NumPreds()
	e := &Epoch{
		gen:     gen,
		names:   make([]string, n),
		arities: make([]int, n),
		rows:    make([]storage.EpochRows, n),
	}
	for i, pd := range p.cat.Preds() {
		e.names[i] = pd.Name
		e.arities[i] = pd.Arity
		e.rows[i] = pd.Derived.PinRows()
	}
	// The statistics snapshot is taken here, at the boundary and before any
	// later baseline rewind can truncate the relations the counters
	// describe — a session's planner must never observe a half-rewound
	// cardinality or histogram.
	e.stats = stats.CaptureSnapshot(p.cat)
	// Flush-on-publish: persist everything sessions built during the closing
	// epoch, with the new boundary's statistics as the profile snapshot, so
	// a restart after any publication starts disk-warm.
	p.flushPersistLocked(p.PlanStore(), e.stats)
	if s.pendingDeletes {
		// A retraction-bearing window breaks the append-only premise below:
		// the previous epoch's ground lengths no longer delimit a pure
		// addition delta, so this epoch must derive cold even for monotone
		// programs. The flag is window-scoped — the NEXT epoch's delta is
		// again additions-over-this-epoch (or flagged anew).
		e.deletions = true
		s.pendingDeletes = false
	} else if old != nil && len(old.rows) == n {
		// Ground arenas are append-only across epochs (facts are only ever
		// added; the baseline rewind truncates derived suffixes only), so the
		// previous epoch's ground lengths delimit the ingested delta inside
		// this epoch's pinned rows — the warm-start seed. The previous
		// materialization, if any, rides along as the fixpoint to extend.
		e.prevLens = make([]int, n)
		for i := range old.rows {
			e.prevLens[i] = old.rows[i].Len()
		}
		e.prevMat = old.mat.Load()
	}
	s.epoch.Store(e)
	return e
}

// Epoch returns the currently published epoch.
func (s *Server) Epoch() *Epoch { return s.epoch.Load() }

// Ingest runs fn — fact insertions through the Program's relation handles —
// as the single writer, mutually excluded against other ingestion, Publish,
// and direct Run calls. The new facts stay invisible to sessions until the
// next Publish.
func (s *Server) Ingest(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.runMu.Lock()
	defer s.p.runMu.Unlock()
	fn()
}

// IngestResult reports one streamed transaction's application.
type IngestResult struct {
	// Latency is the wall time spent applying the batch.
	Latency time.Duration
	// Inserted counts assertions applied, Deleted retractions that matched
	// an asserted fact, and Retracted the ground rows physically removed —
	// assertions whose count reached zero (counting semantics: a fact
	// asserted twice survives one deletion).
	Inserted  int
	Deleted   int
	Retracted int
}

// IngestTx applies a batched transaction of fact insertions and deletions to
// the server's ground state as the single writer. Ground facts carry
// assertion counts (enabled on first use): redundant assertions fold into a
// count, and a retraction removes the row only when its count reaches zero —
// one batched compaction per relation. Pinned epochs are untouched: the
// compaction flips shared arenas copy-on-write, so sessions on any published
// epoch keep serving the exact rows they pinned. Changes become visible at
// the next Publish; a batch that retracted rows marks that epoch
// deletion-bearing, pinning its materialization to the cold path (warm
// seeding from the previous fixpoint is unsound under deletions).
func (s *Server) IngestTx(tx *Tx) (IngestResult, error) {
	var res IngestResult
	if tx == nil || tx.p != s.p {
		return res, fmt.Errorf("core: IngestTx of a transaction built for a different Program")
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.p
	p.runMu.Lock()
	defer p.runMu.Unlock()
	// Rewind to the ground baseline (no-op between publishes unless a direct
	// Run intervened) so counts and the prefix invariant address only ground
	// rows, then flip every relation to counted mode once.
	p.ensureBaseline()
	p.enableCountsLocked()
	res.Inserted, res.Deleted, res.Retracted = p.applyGroundLocked(tx)
	if res.Retracted > 0 {
		s.pendingDeletes = true
	}
	res.Latency = time.Since(start)
	s.ingestBatches.Add(1)
	s.ingestedRows.Add(int64(res.Inserted))
	s.ingestRetracted.Add(int64(res.Retracted))
	s.ingestNanos.Add(int64(res.Latency))
	return res, nil
}

// Publish makes everything ingested so far visible atomically: it builds the
// next epoch (baseline rewind through the delta machinery, one epoch/
// generation bump, pinned rows, statistics snapshot) and flips the epoch
// pointer. Sessions opened before the flip keep their pinned epoch; sessions
// opened after see the new one.
func (s *Server) Publish() *Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.runMu.Lock()
	defer s.p.runMu.Unlock()
	return s.publishLocked()
}

// Session is one client's snapshot-isolated query context: a private catalog
// seeded from the pinned epoch, evaluated by a session-lived engine
// (interpreter, optional JIT controller) over the server's shared worker
// pool and unit store. A Session is owned by one goroutine at a time —
// concurrency comes from opening one session per client, any number of
// which query in parallel.
type Session struct {
	srv      *Server
	epoch    *Epoch
	cat      *storage.Catalog
	eng      *execEngine
	weng     *execEngine // lazily built warm-start engine (ir.LowerWarm root)
	baseLens []int
	ran      bool
	closed   bool
	// mat is the epoch materialization this session's catalog holds the
	// fixpoint of (seeded at open on an already-materialized epoch, adopted
	// on a memo hit, or pinned by this session's own derivation); queries
	// while it is set are pure lookups.
	mat *epochMat
}

// Session opens a session pinned to the currently published epoch. On a
// materialized epoch the private catalog is seeded with the pinned fixpoint
// rather than the ground rows, so every query the session issues is a
// lookup.
func (s *Server) Session() (*Session, error) {
	e := s.epoch.Load()
	e.refs.Add(1)

	var mat *epochMat
	if s.opts.Materialize {
		mat = e.mat.Load()
	}

	// Private catalog with the epoch's schema (identical dense PredIDs, by
	// declaration order) and ground rows; the symbol table is shared with
	// the Program (it is append-only and thread-safe), so values mean the
	// same strings in every session and epoch.
	cat := storage.NewCatalog()
	cat.Symbols = s.p.cat.Symbols
	baseLens := make([]int, len(e.names))
	for i, name := range e.names {
		id := cat.Declare(name, e.arities[i])
		pd := cat.Pred(id)
		src := e.rows[i]
		if mat != nil {
			src = mat.rows[i] // fixpoint rows; the ground rows are their prefix
		}
		src.Each(func(row []storage.Value) bool {
			pd.Derived.Insert(row)
			return true
		})
		baseLens[i] = e.rows[i].Len()
	}

	root, err := lowerRoot(s.prog, s.opts)
	if err != nil {
		e.refs.Add(-1)
		return nil, err
	}
	eng, err := newExecEngine(cat, s.prog, root, s.uses, s.opts, s.p.PlanStore(), e.stats)
	if err != nil {
		e.refs.Add(-1)
		return nil, err
	}
	return &Session{srv: s, epoch: e, cat: cat, eng: eng, baseLens: baseLens, mat: mat}, nil
}

// lowerRoot lowers a rewritten rule program to a fresh IR tree (each session
// owns its IR: join orders on it are re-optimized in place).
func lowerRoot(prog *ast.Program, opts Options) (*ir.ProgramOp, error) {
	if opts.Naive {
		return ir.LowerNaive(prog)
	}
	return ir.Lower(prog)
}

// Epoch returns the epoch this session is pinned to.
func (sess *Session) Epoch() *Epoch { return sess.epoch }

// Catalog exposes the session's private catalog (result reading; do not
// mutate).
func (sess *Session) Catalog() *storage.Catalog { return sess.cat }

// Query evaluates the program to fixpoint against the session's pinned
// epoch and returns the per-query Result. Repeated queries are independent:
// derived state rewinds to the epoch's ground rows between them. Under
// Options.Materialize the fixpoint is computed at most once per epoch across
// all sessions — later queries answer from the pinned materialization.
func (sess *Session) Query() (*Result, error) {
	if sess.closed {
		return nil, fmt.Errorf("core: query on closed session")
	}
	if sess.srv.opts.Materialize {
		return sess.queryMaterialized()
	}
	if sess.ran {
		sess.rewind()
	}
	sess.ran = true

	granted := sess.srv.pool.acquire(queryWants(sess.srv.opts))
	defer sess.srv.pool.release(granted)
	sess.eng.in.Workers = granted
	defer sess.eng.arm(sess.srv.opts.Timeout)()
	return sess.eng.query(false)
}

// rewind restores the session catalog to the epoch's ground rows.
func (sess *Session) rewind() {
	for i, pd := range sess.cat.Preds() {
		pd.DeltaKnown.Clear()
		pd.DeltaNew.Clear()
		pd.Derived.TruncateTo(sess.baseLens[i])
	}
}

// queryMaterialized answers a query on a materialize-enabled server. In
// order of preference: the session already holds the fixpoint (lookup); the
// epoch has it (adopt + lookup); a neighbor is deriving it right now (wait +
// adopt); nobody is (derive as the single-flight winner, pin, publish).
func (sess *Session) queryMaterialized() (*Result, error) {
	t0 := time.Now()
	srv, e := sess.srv, sess.epoch
	if sess.mat != nil {
		srv.memoHits.Add(1)
		return &Result{Duration: time.Since(t0), TotalFacts: sess.mat.total}, nil
	}
	for {
		srv.flightMu.Lock()
		// Under the flight lock: a leader publishes e.mat before it retires
		// its flight, so an epoch without a flight either has its fixpoint
		// or nobody deriving it.
		if m := e.mat.Load(); m != nil {
			srv.flightMu.Unlock()
			srv.memoHits.Add(1)
			sess.adoptMat(m)
			return &Result{Duration: time.Since(t0), TotalFacts: m.total}, nil
		}
		if f, ok := srv.flights[e]; ok {
			// A neighbor session is deriving this epoch's fixpoint; wait for
			// it rather than duplicating the work.
			srv.flightMu.Unlock()
			<-f.done
			if f.err != nil {
				continue // leader failed; contend for leadership ourselves
			}
			srv.memoHits.Add(1)
			sess.adoptMat(f.mat)
			return &Result{Duration: time.Since(t0), TotalFacts: f.mat.total}, nil
		}
		f := &matFlight{done: make(chan struct{})}
		srv.flights[e] = f
		srv.flightMu.Unlock()

		res, m, err := sess.derive()
		if err == nil {
			if e.mat.CompareAndSwap(nil, m) {
				srv.matEpochs.Add(1)
				if m.warm {
					srv.warmStarts.Add(1)
				}
			}
			sess.mat = m
			f.mat = m
		}
		f.err = err
		srv.flightMu.Lock()
		delete(srv.flights, e)
		srv.flightMu.Unlock()
		close(f.done)
		return res, err
	}
}

// derive runs the fixpoint on the session's catalog and pins the result as
// this epoch's materialization. When the previous epoch's fixpoint is
// available and the program is monotone, it warm-starts: the catalog is
// pre-seeded with the old fixpoint and only the ingested ground delta (plus
// rows each stratum newly derives) re-enters semi-naive evaluation, through
// the ir.LowerWarm root and the interpreter's SeedDelta hook.
func (sess *Session) derive() (*Result, *epochMat, error) {
	srv, e := sess.srv, sess.epoch
	if sess.ran {
		sess.rewind()
	}
	sess.ran = true
	srv.derivations.Add(1)

	eng := sess.eng
	warm := false
	// A deletion-bearing epoch pins the cold path: the previous fixpoint may
	// over-approximate this epoch's, and seeding can only add. The
	// deletions flag would be redundant with nil prevLens — both are kept so
	// a regression in either guard still fails closed.
	if srv.warmOK && e.prevMat != nil && e.prevLens != nil && !e.deletions {
		weng, werr := sess.warmEngine()
		if werr != nil {
			return nil, nil, werr
		}
		eng = weng
		warm = true
		// Pre-seed the catalog with the previous fixpoint (its ground prefix
		// overlaps this epoch's ground rows; Insert dedups) and record each
		// predicate's watermark: rows beyond it at a stratum's ScanOp are new
		// since the previous epoch — derived by an earlier stratum of this
		// very run — and must re-enter evaluation alongside the ground delta.
		wm := make([]int, sess.cat.NumPreds())
		for i, pr := range e.prevMat.rows {
			pd := sess.cat.Pred(storage.PredID(i))
			pr.Each(func(row []storage.Value) bool {
				pd.Derived.Insert(row)
				return true
			})
		}
		for i, pd := range sess.cat.Preds() {
			wm[i] = pd.Derived.Len()
		}
		// The two row sets are disjoint: the ingested ground rows were in
		// Derived before the watermark was taken.
		eng.setSeedDelta(func(pid storage.PredID, seed func([]storage.Value)) bool {
			g := e.rows[pid]
			for j := e.prevLens[pid]; j < g.Len(); j++ {
				seed(g.Row(j))
			}
			der := sess.cat.Pred(pid).Derived
			for j := wm[pid]; j < der.Len(); j++ {
				seed(der.Row(int32(j)))
			}
			return true
		})
		defer eng.setSeedDelta(nil)
	}

	granted := srv.pool.acquire(queryWants(srv.opts))
	defer srv.pool.release(granted)
	eng.in.Workers = granted
	disarm := eng.arm(srv.opts.Timeout)
	res, err := eng.query(false)
	disarm()
	if err != nil {
		return nil, nil, err
	}

	n := sess.cat.NumPreds()
	m := &epochMat{rows: make([]storage.EpochRows, n), warm: warm}
	for i, pd := range sess.cat.Preds() {
		m.rows[i] = pd.Derived.PinRows()
		m.total += m.rows[i].Len()
	}
	m.stats = stats.CaptureSnapshotAt(sess.cat, e.gen)
	return res, m, nil
}

// adoptMat loads a materialization computed elsewhere into this session's
// catalog, so Len/Each/Contains read the fixpoint exactly as if the session
// had derived it.
func (sess *Session) adoptMat(m *epochMat) {
	if sess.ran {
		sess.rewind()
	}
	sess.ran = true
	for i, pd := range sess.cat.Preds() {
		m.rows[i].Each(func(row []storage.Value) bool {
			pd.Derived.Insert(row)
			return true
		})
	}
	sess.mat = m
}

// warmEngine lazily assembles the session's warm-start engine: the same
// catalog and shared unit store, but an ir.LowerWarm root (a delta variant
// per positive body atom, no naive prologue) staged against the previous
// materialization's post-fixpoint statistics.
func (sess *Session) warmEngine() (*execEngine, error) {
	if sess.weng != nil {
		return sess.weng, nil
	}
	root, err := ir.LowerWarm(sess.srv.prog)
	if err != nil {
		return nil, err
	}
	weng, err := newExecEngine(sess.cat, sess.srv.prog, root, sess.srv.uses, sess.srv.opts, sess.srv.p.PlanStore(), sess.epoch.prevMat.stats)
	if err != nil {
		return nil, err
	}
	sess.weng = weng
	return weng, nil
}

// Len returns the session's derived tuple count for the relation (after a
// Query).
func (sess *Session) Len(r *Relation) int {
	return sess.cat.Pred(r.id).Derived.Len()
}

// Each visits the session's derived tuples for the relation.
func (sess *Session) Each(r *Relation, f func(t []storage.Value) bool) {
	sess.cat.Pred(r.id).Derived.Each(f)
}

// Contains reports whether the session's derived relation holds the tuple
// (arguments as in Relation.Fact).
func (sess *Session) Contains(r *Relation, args ...any) bool {
	t, ok := lookupTuple(sess.cat.Symbols, args)
	return ok && sess.cat.Pred(r.id).Derived.Contains(t)
}

// Close releases the session's engine (JIT controller) and its epoch pin.
// Idempotent.
func (sess *Session) Close() {
	if sess.closed {
		return
	}
	sess.closed = true
	sess.eng.close()
	if sess.weng != nil {
		sess.weng.close()
	}
	sess.epoch.refs.Add(-1)
}

// UnitStats returns the shared store's cumulative compiled-unit counters.
func (s *Server) UnitStats() plancache.Stats {
	return s.p.PlanStore().ClassStats(plancache.ClassUnits)
}

// DiskStats returns the persistent cache's traffic counters; ok is false
// when the server was started without Options.CacheDir.
func (s *Server) DiskStats() (plancache.DiskStats, bool) { return s.p.DiskStats() }
