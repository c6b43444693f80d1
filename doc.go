// Package carac is a from-scratch Go reproduction of "Adaptive Recursive
// Query Optimization" (Herlihy, Martres, Ailamaki, Odersky — ICDE 2024): the
// Carac Datalog engine with Adaptive Metaprogramming, i.e. runtime join-order
// optimization and repeated re-optimization of recursive queries through
// staged code generation.
//
// The engine lives under internal/ (see DESIGN.md for the module map); the
// public entry points are:
//
//   - internal/core — the embedded Datalog DSL and execution engine;
//   - cmd/carac — run .dl programs from the command line;
//   - cmd/caracbench — regenerate every table and figure of the paper;
//   - cmd/datagen — emit the synthetic benchmark datasets;
//   - bench_test.go — testing.B benchmarks, one per table/figure.
//
// # Statistics, plan cache, and the parallel executor
//
// Three subsystems extend the paper's design toward production scale:
//
//   - internal/stats is the unified statistics subsystem: live
//     cardinalities, per-column distinct counts, per-column value-distribution
//     histograms, and monotone drift counters are maintained incrementally
//     inside the internal/storage mutation paths (insert, delta swap,
//     truncate) and read in O(1) by the optimizer, the JIT freshness test,
//     and the plan cache — never re-derived ad hoc. Histograms
//     (core.Options.Histograms) are fixed-width hash histograms on the
//     planned join columns, registered like indexes
//     (storage.Relation.BuildHistogram) and carried through every shard
//     layout (per-bucket counts under the physical store,
//     stats.Catalog.ShardHistogram); the optimizer's atom ordering uses the
//     measured overlap of two join columns' histograms in place of the
//     constant join-key selectivity (optimizer.Options.UseHistograms), and
//     the resulting join-output estimate is recorded on each built plan
//     (interp.Plan.EstRows, totalled in Stats.EstimatedRows) so rebinds and
//     cached reuse keep the estimate that justified the order.
//
//   - internal/plancache generalizes the JIT's one-off freshness test into
//     a uniform drift-gated re-optimization policy. Interpreter access
//     plans and JIT compilation units are cached keyed by (structural
//     fingerprint, cardinality band) and served while observed cardinality
//     drift stays under a configurable threshold; a drift-driven miss
//     re-optimizes the join order with live statistics before re-planning.
//     The seed interpreter's per-execution planning becomes a cache lookup
//     (core.Options.PlanCache / AdaptivePlans).
//
//   - The semi-naive fixpoint driver evaluates the independent rules of
//     each iteration concurrently on a bounded, GOMAXPROCS-aware worker
//     pool (core.Options.ParallelUnions / Workers): workers share the
//     iteration-frozen catalog read-only, sink derivations into private
//     delta buffers, and the buffers are folded through the sinks' Emit at
//     the iteration barrier. ParallelUnions=false is the sequential fallback.
//
// # The sharded catalog
//
// Rule-granular parallelism is bounded by rule count: one huge recursive
// rule (the transitive-closure shape dominating the paper's CSPA workloads)
// serializes every iteration. core.Options.Shards lifts that bound to data
// size:
//
//   - internal/storage hash-partitions every relation into Shards buckets
//     keyed by the predicate's planned join column (storage.ShardOf,
//     Relation.SetShardKey). Buckets are row-id views maintained
//     incrementally beside the hash indexes — registering them changes
//     neither relation content nor the mutation counters, so the drift
//     totals the plan cache's freshness policy compares are identical with
//     and without sharding (per-shard counters refine the predicate counter;
//     a regression test pins the totals).
//
//   - internal/interp fans each rule of a parallel iteration out as one
//     task per delta bucket: a task's plan copy restricts the subquery's
//     delta read to its bucket (exact bucket lists on the scan fast path,
//     per-row hash otherwise), tasks with empty buckets are skipped via the
//     O(1) per-shard cardinality statistic, and the per-worker delta
//     buffers merge at the same iteration barrier as before. The union of
//     the buckets is exactly the delta (FuzzShardRouting), so the fan-out
//     derives the same fixpoint — a differential harness in internal/core
//     checks every engine configuration against the sequential baseline.
//
//   - internal/plancache segments the cache into LockShards independently
//     locked shards keyed by the cache-key hash, so pool workers no longer
//     funnel their plan lookups through a single mutex. Keys that band-hop
//     repeatedly (cardinality climbing every early iteration, the CSPA
//     shape) get per-key band hysteresis: after HysteresisHops consecutive
//     hops the key's band quantization widens a step, so one plan rides the
//     climb instead of re-planning per band.
//
// # The delta merge and adaptive fan-out
//
// The parallel fan-out has every worker derive into a private buffer and
// folds the buffers at an iteration barrier; a static fan-out also taxed
// the small-delta tail iterations every recursive query ends in. Two layers
// decide what that costs:
//
//   - internal/storage gains a physically sharded backing store
//     (storage.Relation.SetShardKeyPhysical, behind the same SetShardKey
//     partitioning): each delta bucket is an independent sub-relation with
//     its own arena slab and indexes, so a bucket task scans and probes one
//     slab, while Derived keeps one arena under row-id bucket views. That makes
//     three layouts — flat, view, physical — over one duplicate-elimination
//     structure: every set has a row table (storage/rowtable.go), an
//     open-addressing table of 1-byte hash tags and 4-byte row ids keyed by
//     the rows' own bytes in the arena. Insert, Contains, the reference
//     counts and the deletion compaction all find a tuple through it; Clear,
//     TruncateTo and the compactions empty or rebuild it in place, so the
//     per-Run baseline rewind allocates nothing for dedup once warm; and a
//     lookup only loads, which is why the workers' set-difference probes
//     against the iteration-frozen Derived are race-free without any
//     per-bucket copy. Derived's row table is the only duplicate elimination
//     of semi-naive evaluation (storage.PredicateDB.Emit): a new fact is
//     staged in it — entered in the table and written past the arena's
//     length, so Contains sees it at once and no reader does — and appended
//     to δ′, a list with no table of its own; SwapClear publishes the staged
//     rows (chains, bucket views, histograms) without probing again. On the
//     sequential path each new fact is hashed and probed once (the pool
//     adds its workers' test against the frozen Derived and their buffers').
//     Join indexes are one
//     structure in the same spirit (storage/chainindex.go), whether over one
//     column or a column set: an open-addressing table with one keyless
//     8-byte slot per distinct key — the first and last row of the key's
//     chain, the key itself read from the first row in the arena — and one
//     int32 array parallel to the arena linking each row to the next row
//     with its key, in insertion order. Indexing a row is two stores with no
//     allocation per key and no key built for a column set; a probe returns
//     the chain (storage.Chain: first row plus the link array) and performs
//     only loads, so frozen relations are probed concurrently like they are
//     tested for membership; chains run in insertion order, so derivation
//     order is what posting lists gave. The capacity rule has no option:
//     ClearRetain, TruncateTo, the deletion compactions and SwapClear on a
//     predicate that is still producing facts empty the index in place and
//     keep its memory for the refill that follows, while Clear — which is
//     what both deltas of a predicate get from SwapClear once an iteration
//     derived nothing for it, and at the start of every Run — gives it back,
//     because two deltas per predicate holding their peak iteration's links
//     between Runs was measured as a 17 % larger live heap on CSPA for no
//     reader. Mutation counters are accounted so drift totals are
//     byte-identical to the flat layout for any operation sequence — mode
//     transitions preserve the totals exactly (the shard-drift regression
//     test pins all three layouts to one number).
//
//   - internal/interp folds the workers' buffers at the iteration barrier
//     through the sinks' Emit, in predicate and worker order: one probe of
//     Derived per buffered row deduplicates across workers and counts the
//     derivation (Stats.MergeTasks adds the pool size at every pooled
//     barrier: the workers whose buffers it folded). The fold is
//     sequential because deduplication happens in Derived's one row table;
//     a bucketed fold would have only δ′'s appends to split.
//     Each worker's buffer keeps a row table: it drops the worker's own
//     repeats before they reach the barrier, where a rule that finds one
//     fact many times over (CSPA's) would otherwise carry every repeat.
//     Worker buffers recycle through a per-Interp free list with capacity
//     retained (storage.Relation.ClearRetain), so steady-state iterations
//     allocate nothing.
//
//   - One fan-out policy decides every parallel iteration, whether the run
//     is parallel through core.Options.ParallelUnions or Shards > 1: the
//     fixpoint driver reads the live delta statistics (total delta and
//     occupied buckets, O(1) through stats.Catalog.ShardCard) and runs an
//     iteration whose total delta is under core.Options.FanoutThreshold
//     (default 256) on the sequential path — no tasks, no buffers, no merge,
//     the small-delta tail every recursive query ends in — while a larger
//     one gets one task per ~threshold/4 delta rows, capped at 4x the worker
//     count, the occupied buckets and Shards, each task a contiguous bucket
//     span (Stats.SeqIters counts the sequential iterations). The threshold
//     is the one escape hatch, for tests and ablations: at 1 every non-empty
//     iteration fans out to min(occupied buckets, Shards) tasks whenever
//     Shards <= 4 x the worker count — the static fan-out of earlier
//     engines, as a setting. BenchmarkShardedSpeedup and
//     BenchmarkSkewedSpeedup (the hub-and-spoke workloads.SkewedGraph, whose
//     delta concentrates in a few buckets) measure the policy end to end.
//
// # The shard-native JIT
//
// The physical store above originally served pure interpretation only:
// attaching a jit.Controller silently fell back to the row-id view
// partition and a sequential loop, because compiled units addressed
// relations by global row id. The compiled backends now speak the
// bucket-local read surface, so sharding and compilation compose:
//
//   - every backend's generated code iterates physically sharded relations
//     through their PhysSubs sub-relations — per-bucket arenas and hash
//     indexes, with a probe on the shard key column routed to exactly one
//     bucket (lambda combinators, the bytecode VM's segment iterators, and
//     the quotes-staged probes all carry the same routing);
//
//   - the parallel driver's bucket-span tasks execute span-parameterized
//     compiled units (interp.ShardUnit, resolved per rule per iteration via
//     interp.ShardCompiler): entry points take the same contiguous
//     [shard, shard+span) restriction chooseFanout hands interpreted tasks,
//     thread all mutable state through per-invocation frames so distinct
//     workers run one unit concurrently, and write derivations into the
//     worker's private buffers, which the merge barrier folds through the
//     sinks' Emit — exactly the fold interpretation uses;
//
//   - task units live in the Program-lifetime store under rule-subtree
//     fingerprints tagged with the shard layout: warm reruns at one layout
//     recompile nothing, a re-partitioned run resolves to fresh keys (never
//     a unit whose spans were sized for another partition), and the unit
//     stays valid across ClearRetain / SwapClear / mode transitions because
//     it resolves relations and layout at invocation time.
//
// Under core.Options.Shards with a JIT backend the engine therefore keeps
// the physical delta store, the pool and its merge barrier
// (Stats.MergeTasks), and the fan-out policy — benchmarked end to end by
// BenchmarkShardedSpeedup's *JIT entries and engines.RunCaracAdaptiveJIT in
// Table II.
//
// # The program-lifetime plan store
//
// The caches above were originally per-Run, so every execution — and every
// incremental fact batch, which triggers a fresh Run — paid the full
// cold-start re-planning tax the drift gate exists to avoid, and the JIT
// kept compiled units in its own per-op map with a duplicate freshness
// mechanism. One Program-owned store now backs both:
//
//   - internal/plancache owns a Store: one shard-locked key space with LRU
//     bounding (plancache.DefaultStoreLimit, approximate per-lock-shard
//     eviction) accessed through typed Cache views in separate key classes
//     — the interpreter's plan view and the JIT's compiled-unit view. Keys
//     are canonical structural fingerprints rather than rule or op
//     identity: plan keys (plancache.KeyFor) are invariant under predicate
//     renaming and variable naming, so N structurally identical rules (the
//     CSPA shape) share one entry, with internal/interp rebinding a shared
//     plan's concrete predicates to the requesting subquery on each hit;
//     unit keys (plancache.KeyForOp) fingerprint the IR subtree with
//     concrete predicates, stable across re-lowerings, so a later Run
//     resolves to the units an earlier Run compiled instead of recompiling,
//     and band return reuses old units (the unit view's cross-band lookup
//     serves any policy-fresh band). The JIT's private freshness test is
//     gone — both views gate on the one shared Policy.
//
//   - core.Options.SharedPlans keys a Run's caches into the store hanging
//     off the Program (Program.PlanStore): repeated runs and incremental
//     batches start warm, drift counters (storage-resident and monotone)
//     carry across runs by construction, and per-Run store generations make
//     reuse observable — Result.Plans/Units report CrossRunHits, the carac
//     CLI prints a plan-store line under -stats (with -repeat N for warm
//     runs from the command line), and engines.RunCaracWarm measures the
//     warm steady state in Table II.
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
//     session-lived execution engine — the same interpreter, plan cache, and
//     JIT controller a Run uses. Sessions share the Program's plan store
//     (plans and compiled units are catalog-independent by the structural
//     keying above, so cross-session reuse is sound and shows up as
//     CrossRunHits) and draw intra-query parallelism from the server's
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
// concurrently — every backend therefore threads its mutable scratch
// through per-invocation pooled state (lambda chain instances, the bytecode
// VM's runState, quotes frames) rather than compile-time buffers. The
// serving load path is driven by engines.RunCaracServe, the carac serve
// subcommand (N clients x QPS), and BenchmarkServeThroughput (race-checked
// in CI at one iteration); the concurrent-session differential matrix
// in internal/core checks every backend against the sequential oracle under
// the race detector.
//
// Materialized epochs (core.Options.Materialize) extend the epoch protocol
// from ground facts to derived state, so repeat queries become lookups:
//
//   - What is pinned: the first query on an epoch runs the fixpoint once —
//     single-flight across all sessions, so N concurrent identical queries
//     compute exactly one derivation while the rest block and adopt — and
//     pins the post-fixpoint Derived rows of every predicate into the epoch
//     (the same PinRows/copy-on-flip machinery as ground facts; physical
//     catalogs pin per-bucket arenas zero-copy), together with a
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
// The materialized load path is driven by engines.RunCaracServe
// (ServeConfig.Materialize/Repeat), carac serve -materialize -repeat, and
// BenchmarkMaterializedServe (race-checked in CI at one iteration), which
// compares repeat-heavy and repeat-free drives against
// the re-derive baseline.
//
// # Persistent cache
//
// The program-lifetime store dies with the process; core.Options.CacheDir
// extends it across process restarts (implying SharedPlans). A Run over a
// CacheDir loads the directory into the store before querying and flushes
// the store back after a successful query; a serving Program loads at Serve
// and flushes at every Publish. The target is the cold start: a restarted
// process replays identical facts, so its drift trajectory matches the one
// the cached entries were built against, and the disk-warm first query
// builds zero plans and — on the bytecode backend — recompiles zero units
// (pinned by TestPersistColdWarmRoundTrip across the execution-mode matrix,
// measured by BenchmarkColdStart and engines.RunCaracColdStart).
//
//   - Entry format: one file per (class, structural key), named
//     c<class>-<sha256(key)>.cce — content addressing by the same canonical
//     fingerprints the in-memory store uses. Each file carries a versioned
//     envelope (magic, format version, an engine tag embedding the engine
//     version plus every codec version, CRC32 over the body) and the key's
//     band entries: drift counters, build-time cardinalities, band-widening
//     state, and the serialized artifact. A profile.ccs file rides along
//     with the post-fixpoint statistics snapshot the entries were built
//     against (stats.CaptureSnapshot; exposed as Program.CachedProfile).
//
//   - What each backend persists: interpreter plans serialize symbolically
//     (internal/interp plan codec — predicates, access-path choices,
//     template elements, EstRows; never pointers) and are revalidated
//     against the live catalog on load (interp.RevalidatePlan, the same
//     demote-or-upgrade logic as bindPlan's rebind), so a probe whose index
//     is not registered in this process degrades to a filtered scan instead
//     of assuming the old layout. Bytecode units serialize whole
//     (bytecode.EncodeProgram: instruction words plus constant pools — the
//     Program is flat and pointer-free by construction). Lambda and quotes
//     closures and span-parameterized shard task units cannot leave the
//     process; they persist as recompile hints (entry recorded, artifact
//     absent) and count as disk misses on load. Materialized fixpoints are
//     never persisted — they belong to epochs, and epochs die with the
//     server.
//
//   - Invalidation rules: any envelope mismatch — magic, format version,
//     engine/codec tag, CRC, or a mid-entry decode error — makes the file a
//     silent miss, counted in plancache.DiskStats.Invalidations (the carac
//     CLI prints a disk-cache line under -stats) and overwritten by the next
//     flush; a corrupt directory can cost a cold start but never an error or
//     a partial entry. Flushes are atomic (temp file + rename, concurrent
//     flushers race benignly) and never delete files, so entries evicted
//     from the bounded in-memory store outlive the eviction on disk.
//     Directory hygiene happens at Load instead: permanently invalid files
//     (bad envelope, stale tag, decode failure) are removed rather than
//     left to accumulate, as are orphaned flush temp files old enough that
//     no live writer can still own them (DiskStats.Swept counts both).
//     Loaded entries are injected at generation zero: the first reuse in
//     the new process always registers as a CrossRunHit, and an entry the
//     live store already rebuilt is never displaced by its disk copy.
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
//     all three storage layouts, found through the same row table that
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
//     frontier builds no plan. Doomed sets are row ids: a candidate head is
//     resolved once through Derived's row table, membership is a bitset over
//     Derived's rows, the next frontier is written straight into the
//     predicate's DeltaNew, the count protection is asked about the row (the
//     ground watermark and the counts are positional), and the rows are
//     removed by id in one batched compaction per relation
//     (storage.Relation.DeleteRowIDs — pinned epoch views detach
//     copy-on-flip first, so serving sessions never observe the
//     compaction). Rederivation is head-driven: the doomed rows are staged
//     in the head predicate's delta before the compaction and join the
//     rule's body as one more atom (ir.RetractRule.Rederive), so the round
//     visits only bodies that produce a candidate, and an atom that arrives
//     fully bound is answered by the row table (interp.StepMember). The
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
// sharded-pool, plus threshold-2/8 and 8-shard/2-worker fan-out cells} ×
// {jit} on TC, CSPA, non-linear TC, a triangle rule, a head with a
// constant and a repeated variable, comparison guards and mutual recursion
// with cyclic support, byte-compared against a recompute-from-scratch
// oracle each step, race-checked in CI), FuzzRetraction (random batches on
// a fuzzer-picked program of those vs the oracle), and
// BenchmarkStreamingIngest (race-checked in CI at one iteration: incremental
// churn batches vs forced recompute) pin the path down.
//
// Post-Run mutation contract (and cache lifecycle): the rule set freezes at
// a Program's first Run — adding rules or source afterwards errors; create a
// new Program for a different rule set. Facts MAY keep being added between
// runs (the catalog rewinds derived state to the ground-fact baseline and
// repartitions on insert), and repeated Runs are always legal. The plan
// store deliberately spans exactly that lifetime: because rules cannot
// change after the first Run, structural fingerprints stay valid for the
// Program's life, and fact mutations are precisely what the drift-gated
// freshness policy absorbs. Execution configuration MAY change between the
// runs of one Program — including the Shards count and whether a JIT is
// attached: plans carry no per-run state, sequential units are
// backend/snippet-tagged, and span-parameterized task units are additionally
// layout-tagged, so mixed-configuration run sequences share what is safe to
// share and recompile the rest.
package carac

// Version identifies this reproduction build. internal/core mirrors it in
// its persistent-cache tag (engineVersion); bump both together so on-disk
// caches from older builds invalidate cleanly.
const Version = "0.1.0"
