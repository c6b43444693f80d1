// Package carac is a from-scratch Go reproduction of "Adaptive Recursive
// Query Optimization" (Herlihy, Martres, Ailamaki, Odersky — ICDE 2024): the
// Carac Datalog engine with Adaptive Metaprogramming, i.e. runtime join-order
// optimization and repeated re-optimization of recursive queries through
// staged code generation.
//
// The engine lives under internal/; the public entry points are:
//
//   - internal/core — the embedded Datalog DSL and execution engine;
//   - cmd/carac — run .dl programs from the command line;
//   - cmd/caracbench — regenerate every table and figure of the paper;
//   - cmd/datagen — emit the synthetic benchmark datasets;
//   - bench_test.go — testing.B benchmarks, one per table/figure.
//
// # Semi-naive evaluation
//
// Each predicate has three databases (storage.PredicateDB, paper §V-B1):
// Full (Derived, every fact known), δ (the facts the last iteration found)
// and δ′ (this iteration's). ir.Lower gives a recursive rule one subquery
// per recursive body atom k, in the textbook old/new split: atom k reads δ,
// the recursive atoms before it read Old — Full less δ, the facts known
// before the last iteration (ir.SrcOld) — and every other atom reads Full.
// A body match holding δ tuples at several recursive atoms is then derived
// once, by the variant of its first δ atom, instead of once per δ tuple; on
// CSPA that is 29 % fewer emits for the same facts.
//
// Old costs no relation of its own. After SwapClear a flat δ is a view of
// Derived's newest rows, so Old is a row bound on Derived
// (storage.PredicateDB.OldBound): a scan stops at the bound, and a probe
// stops at the first chain row past it, since chains run in insertion order.
// The bound is read each time a plan runs, so a compiled unit stays valid
// across iterations. Where δ is not such a view — a δ seeded row
// by row by a warm start (interp.Interp.SeedDelta), a retraction frontier —
// Old falls back to all of Full, which is always correct and only derives
// some matches twice. After SeedAll δ is all of Full and Old is empty. Every
// executor — push, lambda's units (sequential or pool tasks, one chain) and
// the irgen, bytecode and quotes fixtures — reads through storage's one read
// surface (storage.Relation.Scan, ScanKey), a row range of one flat
// relation, so all of them honor the bound, pooled runs included.
// ir.LowerWarm and ir.LowerRetract read Full at every non-delta atom.
//
// # Statistics, the unit cache, and the parallel executor
//
// Three subsystems extend the paper's design toward production scale:
//
//   - internal/stats is the unified statistics subsystem: live
//     cardinalities, per-column distinct counts, per-column value-distribution
//     histograms, and monotone drift counters are maintained incrementally
//     inside the internal/storage mutation paths (insert, delta swap,
//     truncate) and read in O(1) by the optimizer and the JIT freshness test
//     — never re-derived ad hoc. Histograms
//     (core.Options.Histograms) are fixed-width hash histograms on the
//     planned join columns, registered like indexes
//     (storage.Relation.BuildHistogram); the optimizer's atom ordering uses the
//     measured overlap of two join columns' histograms in place of the
//     constant join-key selectivity (optimizer.Options.UseHistograms), and
//     the resulting join-output estimate is recorded on each built plan
//     (interp.Plan.EstRows, totalled in Stats.EstimatedRows).
//
//   - internal/plancache is the JIT's freshness test: compilation units
//     are cached under their structural fingerprint, one entry per
//     cardinality regime, and served while observed cardinality drift stays
//     under the JIT's threshold; a drift-driven miss reorders the join with
//     live statistics and recompiles (paper §V-B2). The interpreter caches nothing: an
//     interpreted subquery builds its access plan at every execution, the
//     overhead compiled units avoid, and the adaptive join ordering of a
//     run without compiled code is the irgen fixture's in-place reorder.
//
//   - The semi-naive fixpoint driver evaluates the independent rules of
//     each iteration concurrently on a bounded, GOMAXPROCS-aware worker
//     pool (core.Options.ParallelUnions / Workers): workers share the
//     iteration-frozen catalog read-only, append derivations to private
//     append-only lists, and the barrier folds the lists through the sinks'
//     Emit. ParallelUnions=false is the sequential fallback.
//
// # Morsel tasks
//
// Rule-granular parallelism is bounded by rule count: one huge recursive
// rule (the transitive-closure shape dominating the paper's CSPA workloads)
// serializes every iteration. core.Options.Shards lifts that bound to data
// size by splitting the work, not the data (morsel-driven parallelism):
//
//   - internal/interp fans each rule of a parallel iteration out as up to
//     Shards tasks, and task i of n reads a morsel of the rule's δ: its
//     rows [L·i/n, L·(i+1)/n) of the δ's L rows (storage.Morsel). A
//     scan reads the range; a probe walks the key's chain, skipping the
//     rows below the morsel and stopping at its end, since chains run in
//     insertion order. δ stays flat — the view of Derived's newest rows
//     SwapClear lends it — so Old stays an exact row bound under the pool
//     too, and a pooled run emits the matches a sequential one does. The
//     morsels cover δ exactly once (FuzzShardRouting), so the fan-out
//     derives the same fixpoint — a differential harness in internal/core
//     checks every engine configuration against the sequential baseline.
//     A subquery without a δ atom is whole-relation work the first task
//     runs alone.
//
//   - Pool workers never touch the unit store: the coordinator resolves
//     each rule's compiled task unit once per iteration, at the sequential
//     fan-out point, and hands it to the tasks. The store's one mutex is
//     taken by interpreter goroutines and the JIT's compile worker only.
//
// # The delta merge and adaptive fan-out
//
// The parallel fan-out has every worker derive into a private list and
// folds the lists at an iteration barrier; a static fan-out also taxed
// the small-delta tail iterations every recursive query ends in. Two layers
// decide what that costs:
//
//   - internal/storage keeps one layout, flat: one arena per relation over
//     one duplicate-elimination structure: every set has a row table
//     (storage/rowtable.go), an open-addressing table of 1-byte hash tags
//     and 4-byte row ids keyed by the rows' own bytes in the arena. Insert,
//     Contains, the reference counts and the deletion compaction all find
//     a tuple through it;
//     ClearRetain, TruncateTo and the compactions empty or rebuild it in
//     place, so the per-Run baseline rewind allocates nothing for dedup once
//     warm; and a lookup only loads, which is why the workers' set-difference probes
//     against the iteration-frozen Derived are race-free without any
//     copy. Derived's row table is the only duplicate elimination
//     of semi-naive evaluation (storage.PredicateDB.Emit): a new fact is
//     staged in it — entered in the table and written past the arena's
//     length, so Contains sees it at once and no reader does — and that is
//     its only copy: a flat δ′ is only owed it. SwapClear publishes the
//     staged rows (chains, histograms) without probing again, and after the
//     publish δ is exactly Derived's newest rows, so the flat δ′ borrows
//     them as a capacity-clipped view of Derived's arena
//     (storage.Relation.borrow, the view an epoch pin gives) and becomes δ
//     with no row copied; Derived recalls the view — copies it into the
//     delta — before it rewrites rows in place. A δ′ seeded row by row (the
//     warm starts) and retraction's frontiers hold their rows themselves,
//     as lists with no table. On the
//     sequential path each new fact is hashed and probed once (the pool
//     adds its workers' test against the frozen Derived — twice — and the
//     worker list's repeat filter, below).
//     Join indexes are one
//     structure in the same spirit (storage/chainindex.go), whether over one
//     column or a column set: an open-addressing table with one keyless
//     8-byte slot per distinct key — the first and last row of the key's
//     chain, the key itself read from the first row in the arena — and one
//     int32 array parallel to the arena linking each row to the next row
//     with its key, in insertion order. Indexing a row is two stores with no
//     allocation per key and no key built for a column set. Derived indexes
//     every row as it is inserted; the two deltas of a predicate keep their
//     registrations but link no row as it arrives: right before a plan that
//     probes δ starts — and, for the pool, before the fan-out — the
//     coordinating goroutine brings that index up to date in one pass sized
//     once (storage.Relation.EnsureIndex, interp.EnsureDeltaIndexes), and a
//     probe of an index that has not caught up panics. A probe returns
//     the chain (storage.Chain: first row plus the link array) and performs
//     only loads, so frozen relations are probed concurrently like they are
//     tested for membership; chains run in insertion order, so derivation
//     order is what posting lists gave. The capacity rule has no option:
//     Derived keeps its exact-sized memory, and a delta takes its own arena,
//     row table, links and slots from one size-classed scratch pool and
//     gives them back on Clear (storage/scratch.go), so a warm Run or Apply
//     reuses the last one's slabs and an idle Program, once two collections
//     have run, pins none; kept on the relations, they measured as a 17 %
//     larger live heap on CSPA for no reader. The pool keeps one free stack
//     per class that a take on any P reaches, with a sync.Pool's lifetime
//     (an anchor sync.Pool holds the stacks, the pool itself only weakly): a
//     sync.Pool per class missed whenever a slab was given on one P and
//     wanted on another, which alone doubled a warm TC Run's bytes at two
//     Ps.
//
//   - internal/interp folds the workers' output at the iteration barrier
//     through the sinks' Emit, in task order whichever worker ran a task,
//     so δ′'s row order does not depend on scheduling: one probe of Derived
//     per listed row deduplicates — within a worker, across workers and
//     against the iteration's other finds — and counts the derivation
//     (Stats.MergeTasks adds the pool size at every pooled barrier). The
//     fold is sequential because deduplication happens in Derived's one row
//     table; a split fold would have only δ′'s appends to split.
//     A worker's output is an append-only interp.RowList per predicate,
//     with no row table, in fixed-size chunks taken from the same scratch
//     pool: a list never copies as it grows, each task's rows are recorded
//     as a segment of its worker's list, and every chunk returns to the
//     pool at the barrier, so a warm iteration or Run allocates nothing for
//     them. A list is not a set, but it keeps a repeat
//     filter in one more chunk — the positions of recently appended rows,
//     four to a hash set — that drops most of a worker's repeats before
//     they reach the sequential fold: CSPA's rules find each new fact about
//     twenty times over, and the filter keeps nine in ten of those finds
//     off the barrier, where TC, whose finds are nearly all distinct, pays
//     its chunk and a hash per find. Dropping a row equal to one the worker
//     listed earlier cannot move a first occurrence: a worker takes its
//     tasks in task order. Retraction's pooled over-delete rounds write the
//     same lists, unfiltered, and commit them in plan order.
//
//   - One fan-out policy decides every parallel iteration, whether the run
//     is parallel through core.Options.ParallelUnions or Shards > 1: the
//     fixpoint driver reads the live delta cardinalities (O(1) lengths) and
//     runs an iteration whose total delta is under
//     core.Options.FanoutThreshold (default 256) on the sequential path —
//     no tasks, no lists, no merge, the small-delta tail every recursive
//     query ends in — while a larger one gets one task per ~threshold/4
//     delta rows, capped at 4x the worker count and Shards, each task a
//     morsel (Stats.SeqIters counts the sequential iterations). The
//     threshold is the one escape hatch, for tests and ablations: at 1
//     every non-empty iteration fans out to min(total delta rows, Shards)
//     tasks whenever Shards <= 4 x the worker count — the static fan-out of
//     earlier engines, as a setting. BenchmarkShardedSpeedup and
//     BenchmarkSkewedSpeedup (the hub-and-spoke workloads.SkewedGraph,
//     whose hubs make some morsels far costlier than others) measure the
//     policy end to end.
//
// # The morsel-native JIT
//
// Lambda, the production backend, runs under the pool, so the fan-out and
// compilation compose (the irgen, bytecode and quotes fixtures never run
// under a pool):
//
//   - lambda's combinators read through storage's one read surface
//     (storage.Relation.Scan, ScanKey), as Plan.Execute does: a row range
//     of one flat relation, its key's chain where an index answers;
//
//   - the parallel driver's morsel tasks execute morsel-parameterized
//     compiled units (interp.ShardUnit, resolved per rule per iteration via
//     interp.ShardCompiler): entry points take task lo..hi of n and read
//     the same morsel of δ an interpreted task reads, thread all mutable
//     state through the invoking interpreter's frame so distinct workers
//     run one unit concurrently, and append derivations to the worker's
//     private lists, which the merge barrier folds through the sinks' Emit
//     — exactly the fold interpretation uses. A sequential unit is the same
//     chain invoked unrestricted;
//
//   - task units live in the Program-lifetime store under shard-tagged
//     rule-subtree fingerprints without the Shards count, since a unit
//     reads whatever morsel lo..hi of n it is invoked with: warm reruns at
//     any count recompile nothing, and the unit stays valid across
//     ClearRetain and SwapClear because it resolves relations and δ's
//     length at invocation time.
//
// Under core.Options.Shards with the lambda backend the engine therefore
// keeps the pool and its merge barrier (Stats.MergeTasks) and the fan-out
// policy — benchmarked end to end by BenchmarkShardedSpeedup's *JIT
// entries.
//
// # The program-lifetime unit store
//
// A per-Run unit cache makes every execution — and every incremental fact
// batch, which triggers a fresh Run — recompile from cold. One Program-owned
// store keeps the units instead:
//
//   - internal/plancache owns a Store: one map behind one mutex, from a
//     unit key to the entries compiled for it — each a unit, the
//     cardinalities it was compiled at, its drift counters and its store
//     generation — read through typed Cache views, the JIT's sequential and
//     task-unit views. A lookup serves the entry whose drift counters equal
//     the live ones without computing drift, else the entry of least drift
//     within the threshold; a store replaces the entry compiled at equal
//     cardinalities or appends one, so returning to an earlier cardinality
//     regime reuses the unit built for it. A store holding
//     plancache.DefaultStoreLimit entries stores no new one and the unit
//     still runs. Unit keys (plancache.KeyForOp) fingerprint the IR subtree
//     with concrete predicates, stable across re-lowerings, so a later Run
//     resolves to the units an earlier Run compiled instead of recompiling.
//
//   - core.Options.SharedPlans keys a Run's unit cache into the store
//     hanging off the Program (Program.PlanStore): repeated runs and
//     incremental batches start warm, drift counters (storage-resident and
//     monotone) carry across runs by construction, and per-Run store
//     generations make reuse observable — Result.Units reports
//     CrossRunHits, and the carac CLI prints a plan-store line under -stats
//     (with -repeat N for warm runs from the command line). The store holds
//     no interpreter plans: a JIT-off Run plans every subquery execution,
//     shared store or not.
//
// # Serving
//
// Everything above evaluates one Run at a time; core.Program.Serve turns a
// Program into a single-writer, many-reader query server on the same
// engine paths:
//
//   - An Epoch is an immutable snapshot published at a storage boundary:
//     pinned zero-copy views of every predicate's ground facts
//     (storage.Relation.PinRows — destructive rewrites detach the pinned
//     arena copy-on-flip, so appends stay cheap and epochs never copy
//     eagerly), a deep statistics snapshot taken before the baseline rewind
//     (stats.CaptureSnapshot, so a session's optimizer sees
//     boundary-consistent cardinalities and histograms, never a half-rebuilt
//     live histogram), and the plan-store generation for that boundary.
//
//   - A Session (core.Server.Session) pins the current epoch and evaluates
//     fixpoint queries against a private catalog seeded from it, through a
//     session-lived execution engine — the same interpreter and JIT
//     controller a Run uses. Sessions share the Program's unit store
//     (compiled units are catalog-independent by the structural keying
//     above, so cross-session reuse is sound and shows up as CrossRunHits) and draw intra-query parallelism from the server's
//     bounded worker pool: an idle server grants a session its full
//     fan-out, a loaded one degrades sessions toward one worker each.
//
//   - Writes stay single-writer: Server.Ingest batches fact mutations on
//     the live catalog, and Server.Publish flips the next epoch atomically
//     (rewind to ground baseline, advance the catalog epoch, bump the store
//     generation once per boundary — never per session query). Sessions
//     opened before a publish keep answering from their pinned epoch;
//     sessions opened after see the new facts. Run remains available on a
//     serving Program and is itself guarded by an internal mutex (see
//     TestConcurrentRunGuard for the race it closes).
//
// Compiled-unit re-entrancy is part of this contract: cached units are
// shared through the store, so two sessions may execute one unit
// concurrently — lambda, the one compiling backend Serve accepts, therefore
// threads its mutable scratch through per-invocation chain instances rather
// than compile-time buffers. The serving load path is driven by the carac
// serve subcommand (N clients x QPS) and perf's serve_mixed workload (its
// smoke race-checked in CI); the concurrent-session differential matrix in internal/core checks the
// interpreter and lambda against the sequential oracle under the race
// detector.
//
// Materialized epochs (core.Options.Materialize) extend the epoch protocol
// from ground facts to derived state, so repeat queries become lookups:
//
//   - What is pinned: the first query on an epoch runs the fixpoint once —
//     single-flight across all sessions, so N concurrent identical queries
//     compute exactly one derivation while the rest block and adopt — and
//     pins the post-fixpoint Derived rows of every predicate into the epoch
//     (the same zero-copy PinRows/copy-on-flip machinery as ground facts),
//     together with a
//     post-fixpoint statistics snapshot stamped with the epoch generation.
//     The epoch is the fixpoint's only owner (Epoch.mat) — a superseded
//     epoch's rows are collectable once its sessions close and the next
//     epoch's warm start has let go of them. Server.Stats counts MemoHits,
//     MaterializedEpochs, WarmStarts, and Derivations.
//
//   - When invalidation happens: at the epoch flip, structurally. Ingest
//     alone changes nothing visible; Publish installs a new Epoch, which has
//     no fixpoint yet, so its first query recomputes. Sessions pinned to an older epoch keep
//     answering from that epoch's materialization forever — snapshot
//     isolation extends to derived state. Sessions opened on an already
//     materialized epoch are seeded with the pinned fixpoint directly and
//     never derive.
//
//   - Warm-start semantics: for monotone programs (no negation, no
//     aggregates — non-monotone programs and Naive mode fall back to cold
//     derivation), the next epoch's materialization does not start from
//     scratch. The catalog is pre-seeded with the previous epoch's fixpoint,
//     and only the ingested ground delta (additions-only, delimited by the
//     previous epoch's pinned lengths) plus each stratum's newly derived
//     rows re-enter semi-naive evaluation, through a dedicated incremental
//     lowering (ir.LowerWarm: a delta variant per positive body atom, no
//     naive prologue) and the interpreter's SeedDelta hook. Plans for the
//     warm root are staged against the previous materialization's
//     post-fixpoint statistics.
//
// The materialized load path is driven by carac serve -materialize -repeat
// and by perf's serve_mixed workload, whose readers query a materializing
// server beside a writer ingesting insert and delete batches.
//
// # Checkpoints
//
// A restarted server pays for its first epoch's fixpoint; a checkpoint is
// that fixpoint on disk. Under Serve with Materialize, core.Options.CacheDir
// names a checkpoint directory (Run, Apply and a Serve without Materialize
// refuse it). The single-flight winner that derives and pins an epoch's
// materialization writes it there after its flight closes, synchronously
// and serialized, skipping any epoch older than one this server already
// wrote; a failed or timed-out derivation writes nothing, and a disk error
// is dropped. Serve publishes its first epoch, then reads the checkpoint: if
// it matches, the epoch's materialization is the checkpoint's rows behind
// the epoch's own ground rows (the prefix a session's rewind keeps), loaded
// through the sized bulk path (storage.Relation.Reserve / AppendDistinct)
// and pinned, with the statistics snapshot it was written with. The first
// query is then a lookup, and the first insert-only batch warm-starts from
// it; a deletion window still derives cold. ServeStats reports Restored,
// RestoreMisses and RestoreMiss, and splits the cold materializations into
// ColdAfterDeletions and ColdNoPrevious (carac serve -stats prints a
// checkpoint: line).
//
//   - Format: one file, fixpoint.ckpt: magic, format version, engine tag
//     (engine version plus stats.SnapshotCodecVersion), a digest of the
//     rewritten rule program (predicate names and arities in id order, then
//     every rule, constants by name), the symbol names the rows use, and
//     per predicate a digest of its ground rows and the values of its rows
//     beyond the ground prefix (a symbol as -(i+1), naming the i-th name),
//     then the stats.AppendSnapshot encoding and a CRC32 of all of it. A
//     file decodes only if it is byte for byte what the encoder would write
//     (FuzzCheckpoint).
//
//   - Invalidation: the ground-row digest is order-free (rows hash with
//     symbols by name, and the sorted row hashes hash again), so facts
//     loaded in another order, with other symbol ids, still match, and the
//     rows are renumbered into the Program's symbol table. A missing file,
//     another version or tag, another rule program, other ground facts, a
//     symbol the Program never interned, or a bad CRC, truncation or
//     malformed body means a cold first epoch, counted with that reason
//     ("absent", "version", "program", "facts", "symbols", "corrupt"); its
//     derivation then writes a good checkpoint over the old one.
//
//   - Crash safety: the file is written to a temp file in the directory and
//     renamed over the old one (wire.WriteFileAtomic), so a crash between
//     write and rename leaves the previous checkpoint loadable and a .tmp-*
//     file behind. The restart that adopts a checkpoint removes the .tmp-*
//     files last written before it; a newer one may be a live writer's and
//     stays. Nothing is fsynced: a machine crash may lose the newest
//     checkpoint, or leave a torn one that loads as "corrupt".
//
// # Incremental maintenance
//
// Everything above treats ground facts as append-only; core.Tx and
// core.Program.Apply add retraction. A Tx is a batch of insertions and
// deletions (deletions apply first; a delete plus insert of one tuple in
// the same batch nets to present), and Apply brings the standing fixpoint
// up to date incrementally instead of recomputing it:
//
//   - Counting for ground facts: every ground row carries an assertion
//     count (storage.Relation.EnableCounts/IncRef/DecRef, maintained across
//     both storage layouts, found through the same row table that
//     deduplicates inserts). Inserting an already-present fact bumps
//     its count; a deletion decrements and only a count reaching zero makes
//     the fact a retraction candidate — redundant retractions are no-ops
//     (ApplyResult.Deleted vs Retracted). Derived rows are not counted:
//     recursive closures make exact derivation counting quadratic in the
//     worst case, which is exactly why the derived side uses DRed instead.
//
//   - DRed for derived state, executed at join speed: zero-count seeds
//     drive an over-delete closure (interp.Interp.OverDelete over
//     ir.LowerRetract's per-rule delta variants) that marks everything
//     transitively derivable from the deleted facts, protecting
//     still-asserted ground rows. Its rounds are delta-driven and
//     optimizer-ordered: before each round every variant whose frontier is
//     non-empty is reordered against live cardinalities by the same
//     optimizer.Reorder every other subquery gets, so the small frontier
//     drives and Derived is index-probed, and a variant with an empty
//     frontier builds no plan. The doomed set is the only set: a candidate
//     head is resolved once through Derived's row table, membership is a
//     bitset over Derived's rows, and the count protection is asked about
//     the row (the ground watermark and the counts are positional). The
//     bitset already makes every doomed row distinct, so nothing else
//     deduplicates: the next frontier is appended to the predicate's
//     DeltaNew as a list (storage.Relation.AppendDistinct), and only a
//     frontier a round's plan reads fully bound gets a row table, built in
//     one sized pass (storage.Relation.Seal), and only one it probes gets the
//     index it probes (storage.Relation.EnsureIndex). The bitset itself is the
//     removal batch: one compaction per relation moves the survivors down
//     run by run (storage.Relation.DeleteRowIDs — pinned epoch views detach
//     copy-on-flip first, so serving sessions never observe the compaction).
//     Rederivation is head-driven: the doomed rows are bulk-loaded into the
//     head predicate's delta before the compaction — sized once from the
//     bitset's popcount (storage.Relation.Reserve), appended off the bits —
//     and join the rule's body as one more atom (ir.RetractRule.Rederive),
//     so the round visits only bodies that produce a candidate, and an atom
//     that arrives fully bound is answered by the row table
//     (interp.StepMember). Retraction hands its deltas back with Clear,
//     which releases their row tables and indexes. The
//     monotone continuation (the same ir.LowerWarm + SeedDelta machinery
//     materialized warm start uses) then cascades rederivation and
//     co-batched insertions to the new fixpoint. Post-removal state
//     under-approximates the new fixpoint, so the monotone re-run is sound.
//     It stays delete-and-REderive on purpose: facts that support each other
//     in a cycle all have "another derivation" until the whole cycle is
//     doomed, so pruning the over-delete needs a backward proof search, not
//     a one-step check (the CyclicSupport scenario pins this).
//
//   - Failure: Options.Timeout bounds the whole Apply. Until the closure is
//     complete only counts have changed; a cancellation there rolls them
//     back and returns interp.ErrCancelled with the standing fixpoint
//     valid, and a retraction subquery with no executable plan demotes the
//     batch to the cold path the same way. After removal a failure leaves
//     the ground facts carrying the whole batch and the next Apply or Run
//     recomputes.
//
//   - When Apply is warm: a standing fixpoint exists, the program is
//     monotone (no negation — a deletion can create a negation-guarded
//     tuple, which DRed cannot see), and Naive mode is off; anything else
//     — including the bootstrap batch — falls back to a cold recompute,
//     reported as ApplyResult.Cold. Stats.Retracted / Stats.Rederived and
//     per-batch ApplyResult.Latency expose the maintenance work.
//
//   - Serving: Server.IngestTx applies a Tx to the live ground state
//     (count-gated, same semantics) between epochs; a deletion-bearing
//     window marks the next published epoch, which refuses the
//     materialization warm start and derives cold — warm seeding can only
//     add. Pinned epochs keep serving their snapshot verbatim across the
//     deletion compaction, and the post-delete Publish installs a fresh
//     epoch, so no session answers from a stale fixpoint.
//     ServeStats{IngestBatches, IngestedRows, RowsRetracted, IngestLatency}
//     count the ingest side.
//
// The delete-oracle differential matrix (TestDeleteOracleMatrix: scripted
// insert/delete batches across {sequential, parallel, sharded,
// sharded-pool, plus threshold-2/8 and 8-task/2-worker fan-out cells} ×
// {jit} on TC, CSPA, non-linear TC, a triangle rule, a head with a
// constant and a repeated variable, comparison guards and mutual recursion
// with cyclic support, byte-compared against a recompute-from-scratch
// oracle each step, race-checked in CI), FuzzRetraction (random batches on
// a fuzzer-picked program of those vs the oracle), and perf's stream_churn
// workload (a delete batch and its re-insert on a standing TC fixpoint, its
// smoke race-checked in CI) pin the path down.
//
// Post-Run mutation contract (and cache lifecycle): the rule set freezes at
// a Program's first Run — adding rules or source afterwards errors; create a
// new Program for a different rule set. Facts MAY keep being added between
// runs (the catalog rewinds derived state to the ground-fact baseline and
// repartitions on insert), and repeated Runs are always legal. The unit
// store deliberately spans exactly that lifetime: because rules cannot
// change after the first Run, structural fingerprints stay valid for the
// Program's life, and fact mutations are precisely what the drift-gated
// freshness policy absorbs. Execution configuration MAY change between the
// runs of one Program — including the Shards count and whether a JIT is
// attached: sequential units are
// backend/snippet-tagged, and span-parameterized task units are additionally
// layout-tagged, so mixed-configuration run sequences share what is safe to
// share and recompile the rest.
package carac

// Version identifies this reproduction build. internal/core mirrors it in
// its checkpoint tag (engineVersion); bump both together so checkpoints
// from older builds invalidate cleanly.
const Version = "0.1.0"
