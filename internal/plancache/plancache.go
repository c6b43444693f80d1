// Package plancache implements drift-gated caching of compiled query
// artifacts — interpreter access plans and JIT compilation units — behind
// one uniform adaptive-re-optimization policy.
//
// The paper's JIT reuses a compiled unit while the live cardinalities of the
// relations it joins "have not drifted beyond a relative threshold since it
// was compiled" (§V-B2). This package generalizes that one-off freshness
// test: an artifact is cached under a *structural fingerprint* of the code it
// evaluates plus a cardinality band, and served while observed drift stays
// under the policy threshold; once drift exceeds it the entry is dropped,
// which is the caller's cue to re-optimize the join order with live
// statistics before rebuilding. Cardinality bands (powers of two) partition
// the entries so that returning to a previously seen cardinality regime
// re-uses the artifact built for it rather than oscillating one shared entry.
//
// Artifacts live in a Store — one shard-locked key space that outlives any
// single execution (core hangs it off the Program) — accessed through typed
// Cache views: the interpreter's plan view and the JIT's compiled-unit view
// are windows onto the same store, in separate key classes, so both reuse
// mechanisms share one LRU bound, one statistics surface, and one freshness
// Policy. Keys are structural, not identity-based: interpreter-plan keys
// (KeyFor) are invariant under predicate renaming and variable naming, so N
// structurally identical rules share one entry; compiled-unit keys (KeyForOp)
// fingerprint the IR subtree with concrete predicates, so re-lowering the
// same program in a later Run resolves to the same units without recompiling.
//
// The store is safe for concurrent use by the parallel rule executor's
// workers and is internally segmented into LockShards independently locked
// shards keyed by the cache-key hash, so pool workers do not funnel through
// a single mutex; cached artifacts themselves must be immutable (callers
// copy before attaching per-execution state).
package plancache

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Policy is the uniform adaptive-re-optimization policy: an artifact built
// against cardinality vector old stays fresh while Drift(old, cur) is at
// most Threshold. A non-positive Threshold selects the default 0.5, the
// paper's freshness-sweep sweet spot (§VI-E).
type Policy struct {
	Threshold float64
}

// DefaultThreshold is the relative drift tolerated by the zero Policy.
const DefaultThreshold = 0.5

// threshold resolves the configured or default threshold.
func (p Policy) threshold() float64 {
	if p.Threshold <= 0 {
		return DefaultThreshold
	}
	return p.Threshold
}

// Fresh reports whether an artifact built at cardinalities old may be reused
// at cardinalities cur.
func (p Policy) Fresh(old, cur []int) bool {
	return stats.Drift(old, cur) <= p.threshold()
}

// Band quantizes a cardinality into its power-of-two band: 0 for empty,
// otherwise 1+floor(log2(card)). Cardinalities within one band differ by at
// most 2x, the scale at which join-order decisions actually flip.
func Band(card int) int {
	if card <= 0 {
		return 0
	}
	return bits.Len(uint(card))
}

// BandSig packs the band of every cardinality into a compact string key.
func BandSig(cards []int) string { return bandSig(cards, 0) }

// bandSig is BandSig under a hysteresis widening: shifting the band right
// merges adjacent bands pairwise, so widen steps of a key's quantization
// double the cardinality range one entry serves.
func bandSig(cards []int, widen uint8) string {
	b := make([]byte, len(cards))
	for i, c := range cards {
		b[i] = byte(Band(c) >> widen)
	}
	return string(b)
}

// HysteresisHops is the number of consecutive band-hop misses on one key
// after which that key's band quantization widens one step. Early fixpoint
// iterations roughly double delta cardinalities every pass (the CSPA
// shape), landing every lookup in a fresh band and re-planning each time;
// after HysteresisHops such hops the key has demonstrated the regime is
// climbing, and wider bands let one plan ride the climb.
const HysteresisHops = 3

// maxBandWiden caps the per-key widening (bands up to 2^maxBandWiden
// native bands wide), so a pathological key cannot collapse every regime
// into one entry.
const maxBandWiden = 4

// Key identifies one cacheable artifact within its class: a canonical
// structural fingerprint of the code the artifact evaluates. Reordering a
// subquery's atoms changes the fingerprint, so re-optimized orders occupy
// fresh entries; renaming predicates or variables does not (KeyFor), so
// structurally identical rules resolve to one entry.
type Key struct {
	Sig string
}

// fp accumulates a structural fingerprint. With canonical predicate
// numbering (preds non-nil) each distinct predicate maps to a dense index in
// first-occurrence order, capturing the equality pattern across atoms while
// discarding predicate identity.
type fp struct {
	b     []byte
	preds map[storage.PredID]uint32
}

func (f *fp) put32(v uint32) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], v)
	f.b = append(f.b, n[:]...)
}

func (f *fp) pred(p storage.PredID) uint32 {
	if f.preds == nil {
		return uint32(p)
	}
	id, ok := f.preds[p]
	if !ok {
		id = uint32(len(f.preds))
		f.preds[p] = id
	}
	return id
}

// spj appends the subquery's structural fingerprint: sink, variable count,
// aggregation spec, head projection, and every atom's kind/source/builtin,
// predicate (canonical or concrete), and term pattern in the current atom
// order. Variable IDs are rule-local dense indices already, so hashing them
// raw is invariant under variable *naming* while keeping cached artifacts
// (whose steps reference those IDs) directly executable for any subquery
// sharing the fingerprint.
func (f *fp) spj(spj *ir.SPJOp) {
	f.put32(f.pred(spj.Sink))
	f.put32(uint32(spj.NumVars))
	f.b = append(f.b, byte(spj.Agg.Kind))
	f.put32(uint32(spj.Agg.HeadPos))
	f.put32(uint32(spj.Agg.OverVar))
	for _, h := range spj.Head {
		if h.IsConst {
			f.b = append(f.b, 'c')
			f.put32(uint32(h.Const))
		} else {
			f.b = append(f.b, 'v')
			f.put32(uint32(h.Var))
		}
	}
	f.b = append(f.b, 0xfe)
	for _, a := range spj.Atoms {
		f.b = append(f.b, byte(a.Kind), byte(a.Src), byte(a.Builtin))
		if a.IsRelational() {
			f.put32(f.pred(a.Pred))
		}
		for _, t := range a.Terms {
			f.b = append(f.b, byte(t.Kind))
			if t.Kind == ast.TermConst {
				f.put32(uint32(t.Val))
			} else {
				f.put32(uint32(t.Var))
			}
		}
		f.b = append(f.b, 0xff)
	}
}

func (f *fp) preds32(ps []storage.PredID) {
	f.put32(uint32(len(ps)))
	for _, p := range ps {
		f.put32(uint32(p))
	}
}

// KeyFor derives the canonical structural cache key of an SPJ subquery in
// its current atom order. Predicates are numbered by first occurrence (sink
// first), so rules that differ only by predicate renaming — the CSPA shape,
// N structurally identical recursive rules over distinct relations — share
// one key; callers serving a shared artifact rebind its concrete predicates
// to the requesting subquery.
func KeyFor(spj *ir.SPJOp) Key {
	f := fp{preds: make(map[storage.PredID]uint32, 4)}
	f.spj(spj)
	return Key{Sig: string(f.b)}
}

// KeyForOp fingerprints an IR subtree with *concrete* predicate identity —
// compiled units hard-code the predicates they read and sink into, so unit
// keys must distinguish them. Unlike ir.Op pointer identity (the pre-store
// unit-map key), the fingerprint is stable across re-lowerings of the same
// program, which is what lets a later Run of one Program resolve to the
// units an earlier Run compiled. tag bytes (e.g. backend and snippet mode)
// prefix the signature so differently produced units never collide.
func KeyForOp(op ir.Op, tag ...byte) Key {
	var f fp
	f.b = append(f.b, tag...)
	ir.Walk(op, func(o ir.Op) {
		f.b = append(f.b, byte(o.Kind()))
		switch n := o.(type) {
		case *ir.ProgramOp:
			f.put32(uint32(len(n.Body)))
		case *ir.DoWhileOp:
			f.put32(uint32(len(n.Body)))
			f.preds32(n.Preds)
		case *ir.ScanOp:
			f.preds32(n.Preds)
		case *ir.SwapClearOp:
			f.preds32(n.Preds)
		case *ir.UnionAllOp:
			f.put32(uint32(n.Pred))
			f.put32(uint32(len(n.Rules)))
		case *ir.UnionRuleOp:
			f.put32(uint32(len(n.Subqueries)))
		case *ir.SPJOp:
			f.spj(n)
		}
	})
	return Key{Sig: string(f.b)}
}

// Class partitions the store's key space between artifact kinds, so an
// interpreter plan and a compiled unit with coincidentally equal signatures
// can never serve each other.
type Class uint8

const (
	// ClassPlans is the interpreter access-plan view.
	ClassPlans Class = iota
	// ClassUnits is the JIT compiled-unit view.
	ClassUnits
	numClasses
)

// Stats counts cache activity.
type Stats struct {
	// Hits served a cached artifact (FastHits of them via the drift-counter
	// pre-test, without computing cardinality drift).
	Hits     int64
	FastHits int64
	// CrossRunHits is the subset of Hits served by an entry stored under an
	// earlier store generation — with the Program-lifetime store, an entry
	// built by a previous Run (core bumps the generation per Run).
	CrossRunHits int64
	// ColdMisses found no entry for a never-seen key; BandMisses found
	// entries for the key but none in the current cardinality band — the
	// regime changed, a re-optimization cue.
	ColdMisses int64
	BandMisses int64
	// StaleDrops evicted an in-band entry whose drift exceeded the policy
	// threshold — the direct analogue of the JIT's freshness failure.
	StaleDrops int64
	Stores     int64
	// Widens counts band-hysteresis steps: a key that band-hopped
	// HysteresisHops consecutive times had its quantization widened.
	Widens int64
	// Evictions counts entries dropped by the store's LRU bound.
	Evictions int64
}

// HitRate returns served hits over total lookups, 0 when no lookups ran.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.ColdMisses + s.BandMisses + s.StaleDrops
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sub returns the field-wise difference s - o: the activity between two
// snapshots of one long-lived store (per-Run deltas under SharedPlans).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:         s.Hits - o.Hits,
		FastHits:     s.FastHits - o.FastHits,
		CrossRunHits: s.CrossRunHits - o.CrossRunHits,
		ColdMisses:   s.ColdMisses - o.ColdMisses,
		BandMisses:   s.BandMisses - o.BandMisses,
		StaleDrops:   s.StaleDrops - o.StaleDrops,
		Stores:       s.Stores - o.Stores,
		Widens:       s.Widens - o.Widens,
		Evictions:    s.Evictions - o.Evictions,
	}
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.FastHits += o.FastHits
	s.CrossRunHits += o.CrossRunHits
	s.ColdMisses += o.ColdMisses
	s.BandMisses += o.BandMisses
	s.StaleDrops += o.StaleDrops
	s.Stores += o.Stores
	s.Widens += o.Widens
	s.Evictions += o.Evictions
}

// viewKey is the store-internal key: a class-tagged structural fingerprint.
type viewKey struct {
	class Class
	key   Key
}

// entry is one cached artifact with the back-pointers eviction needs and
// its position in the owning shard's LRU list.
type entry struct {
	val      any
	cards    []int
	counters []uint64
	gen      uint64
	vk       viewKey
	band     string
	prev     *entry
	next     *entry
}

// keyBucket holds one key's per-band entries plus its hysteresis state.
type keyBucket struct {
	bands map[string]*entry // band signature (under widen) -> entry
	hops  int               // consecutive band-hop misses
	widen uint8             // current band-quantization shift
}

// LockShards is the fixed number of independently locked store segments.
// Keys hash uniformly across segments, so with a worker pool of size W the
// probability of two workers colliding on one lock is ~W/LockShards per
// lookup — small enough that the pool no longer funnels through a single
// mutex as worker counts grow.
const LockShards = 16

// storeShard is one independently locked segment of the store: its own
// bucket map, per-class activity counters (aggregated on read, so the hot
// path never touches a shared statistics lock either), and an intrusive LRU
// list over its entries (head = most recently used).
type storeShard struct {
	mu      sync.Mutex
	buckets map[viewKey]*keyBucket
	stats   [numClasses]Stats
	entries int
	head    *entry
	tail    *entry
}

// unlink removes e from the shard's LRU list.
func (sh *storeShard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront links e at the most-recently-used end.
func (sh *storeShard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// touch marks e as most recently used.
func (sh *storeShard) touch(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// drop unlinks e and decrements the entry count (the caller owns the bands
// map bookkeeping).
func (sh *storeShard) drop(e *entry) {
	sh.unlink(e)
	sh.entries--
}

// evict removes e from its bucket and the LRU list, deleting the bucket when
// its last band goes (so cold keys do not pin hysteresis state forever).
func (sh *storeShard) evict(e *entry) {
	if b := sh.buckets[e.vk]; b != nil {
		delete(b.bands, e.band)
		if len(b.bands) == 0 {
			delete(sh.buckets, e.vk)
		}
	}
	sh.drop(e)
}

// widenBucket advances the key's quantization one step and re-keys the
// existing entries under the coarser signature (old signature bytes shift
// right with the bands; colliding entries keep an arbitrary survivor — they
// now describe the same merged band, and the loser leaves the LRU list).
func (sh *storeShard) widenBucket(b *keyBucket) {
	b.widen++
	b.hops = 0
	if len(b.bands) == 0 {
		return
	}
	rekeyed := make(map[string]*entry, len(b.bands))
	for sig, e := range b.bands {
		raw := []byte(sig)
		for i := range raw {
			raw[i] >>= 1
		}
		ns := string(raw)
		if old, clash := rekeyed[ns]; clash {
			sh.drop(old)
		}
		e.band = ns
		rekeyed[ns] = e
	}
	b.bands = rekeyed
}

// DefaultStoreLimit is the entry bound of the Program-lifetime store when
// the caller does not configure one: generous next to real workloads (tens
// of rules × a handful of bands each) while keeping a pathological band
// explosion from growing without bound across a long-lived Program.
const DefaultStoreLimit = 4096

// Store owns one shard-locked key space shared by all typed Cache views.
// Unlike the per-Run caches it replaces, a Store is built to outlive
// executions: core hangs one off the Program (Program.PlanStore), bumps its
// generation per Run, and both the interpreter's plan view and the JIT's
// unit view read and write it, so repeated runs and incremental fact batches
// start warm. Construct with NewStore; the zero value is not usable.
type Store struct {
	perShard int // LRU entry bound per lock shard; 0 = unbounded
	gen      atomic.Uint64
	shards   [LockShards]storeShard
}

// NewStore builds an empty store. limit bounds the total entry count with
// approximate (per-lock-shard) LRU eviction; <= 0 is unbounded.
func NewStore(limit int) *Store {
	s := &Store{}
	if limit > 0 {
		s.perShard = (limit + LockShards - 1) / LockShards
	}
	s.gen.Store(1)
	for i := range s.shards {
		s.shards[i].buckets = make(map[viewKey]*keyBucket)
	}
	return s
}

// BumpGeneration starts a new store generation. Hits on entries stored under
// an earlier generation count as CrossRunHits; core bumps once per Run so
// the counter reads as "artifacts reused across executions".
func (s *Store) BumpGeneration() { s.gen.Add(1) }

// Generation returns the current store generation.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// shardFor routes a key to its lock shard: FNV-1a over the structural
// signature folded with the class. The same key always lands on the same
// shard, so per-key operations remain linearizable.
func (s *Store) shardFor(vk viewKey) *storeShard {
	h := uint32(2166136261)
	for i := 0; i < len(vk.key.Sig); i++ {
		h ^= uint32(vk.key.Sig[i])
		h *= 16777619
	}
	h ^= uint32(vk.class)
	h *= 16777619
	return &s.shards[h%LockShards]
}

// Stats aggregates activity across all classes and lock shards.
func (s *Store) Stats() Stats {
	var out Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c := range sh.stats {
			out.add(sh.stats[c])
		}
		sh.mu.Unlock()
	}
	return out
}

// ClassStats aggregates one class's activity across all lock shards.
func (s *Store) ClassStats(c Class) Stats {
	var out Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.add(sh.stats[c])
		sh.mu.Unlock()
	}
	return out
}

// Len returns the number of cached entries across all classes, keys, and
// bands.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.entries
		sh.mu.Unlock()
	}
	return n
}

// Keys returns the number of distinct structural keys cached for a class —
// the entry-sharing measure: on a workload of N structurally identical
// rules it stays below N.
func (s *Store) Keys(c Class) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for vk := range sh.buckets {
			if vk.class == c {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// ViewConfig configures one typed view over a Store.
type ViewConfig struct {
	// Class selects the view's key space.
	Class Class
	// Policy is the drift gate artifacts are served under.
	Policy Policy
	// CrossBand serves a policy-fresh entry from ANY cardinality band when
	// the current band holds none. Interpreter plans keep it off (a band hop
	// is a re-optimization cue); the JIT unit view turns it on, reproducing
	// the original freshness-only unit test — without it, a loose threshold
	// would still recompile per band, and a failed compile would be retried
	// the moment cardinalities crossed a power of two.
	CrossBand bool
}

// Cache is a typed, drift-gated view over a Store's key space for one
// artifact class. Views are cheap handles: any number may be built over one
// store, and all of them see (and bound, and account) the same entries.
// The zero value is not usable; construct with View or New.
type Cache[T any] struct {
	store     *Store
	class     Class
	pol       Policy
	crossBand bool
}

// View builds a typed view over store.
func View[T any](store *Store, cfg ViewConfig) *Cache[T] {
	return &Cache[T]{store: store, class: cfg.Class, pol: cfg.Policy, crossBand: cfg.CrossBand}
}

// New builds a self-contained cache: a plan-class view over a fresh
// unbounded private store (the per-Run configuration).
func New[T any](pol Policy) *Cache[T] {
	return View[T](NewStore(0), ViewConfig{Class: ClassPlans, Policy: pol})
}

// Policy returns the view's freshness policy.
func (c *Cache[T]) Policy() Policy { return c.pol }

// Lookup fetches the artifact cached under k for the current cardinalities.
// counters is the drift-counter vector of the relations the artifact reads:
// when it matches the stored vector the artifact is exact (nothing mutated)
// and drift computation is skipped entirely. stale reports a drift-driven
// miss — the key was known but its cardinality regime moved (band change or
// in-band drift beyond the threshold) — which is the caller's cue to
// re-optimize the join order before rebuilding.
func (c *Cache[T]) Lookup(k Key, counters []uint64, cards []int) (val T, ok bool, stale bool) {
	vk := viewKey{class: c.class, key: k}
	sh := c.store.shardFor(vk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := &sh.stats[c.class]
	bucket := sh.buckets[vk]
	if bucket == nil {
		st.ColdMisses++
		return val, false, false
	}
	e := bucket.bands[bandSig(cards, bucket.widen)]
	crossServe := false
	if e == nil && c.crossBand {
		if ce := c.freshest(bucket, cards); ce != nil {
			e, crossServe = ce, true
		}
	}
	if e == nil {
		// Band hop: the key is known but its cardinality regime moved. After
		// HysteresisHops consecutive hops the key has demonstrated a
		// climbing regime (early fixpoint iterations double deltas every
		// pass) — widen its quantization one step so the next plan stored
		// serves the whole wider band instead of being re-planned per band.
		st.BandMisses++
		bucket.hops++
		if bucket.hops >= HysteresisHops && bucket.widen < maxBandWiden {
			sh.widenBucket(bucket)
			st.Widens++
		}
		return val, false, true
	}
	v, isT := e.val.(T)
	if !isT {
		// A foreign-typed value can only mean two views share a class with
		// different T — treat as absent rather than corrupting the caller.
		st.ColdMisses++
		return val, false, false
	}
	if stats.CountersEqual(e.counters, counters) {
		bucket.hops = 0
		st.Hits++
		st.FastHits++
		if e.gen != c.store.gen.Load() {
			st.CrossRunHits++
		}
		sh.touch(e)
		return v, true, false
	}
	if crossServe || c.fresh(e, cards, bucket.widen) {
		// Drift stays anchored to the build-time cardinalities (like the
		// JIT's per-compilation fingerprint); only the counter vector is
		// refreshed so the next unchanged-world lookup takes the fast path.
		e.counters = append(e.counters[:0], counters...)
		bucket.hops = 0
		st.Hits++
		if e.gen != c.store.gen.Load() {
			st.CrossRunHits++
		}
		sh.touch(e)
		return v, true, false
	}
	delete(bucket.bands, e.band)
	sh.drop(e)
	bucket.hops = 0
	st.StaleDrops++
	return val, false, true
}

// freshest returns the bucket entry with minimal policy-fresh drift from
// cards, or nil. Ties break on the band signature so concurrent callers see
// one deterministic choice.
func (c *Cache[T]) freshest(b *keyBucket, cards []int) *entry {
	thr := c.pol.threshold()
	var best *entry
	bestD := math.Inf(1)
	for _, e := range b.bands {
		d := stats.Drift(e.cards, cards)
		if d > thr {
			continue
		}
		if best == nil || d < bestD || (d == bestD && e.band < best.band) {
			best, bestD = e, d
		}
	}
	return best
}

// fresh applies the drift gate, opened up to the width a hysteresis-widened
// band actually spans: a band merged from 2^widen native bands covers a
// 2^(widen+1)x cardinality range, so an entry must be allowed that much
// relative drift or widening would just convert band misses into stale
// drops and save nothing. The un-widened gate is the plain policy.
func (c *Cache[T]) fresh(e *entry, cards []int, widen uint8) bool {
	if widen == 0 {
		return c.pol.Fresh(e.cards, cards)
	}
	thr := c.pol.threshold()
	if span := float64(uint(1)<<(widen+1) - 1); span > thr {
		thr = span
	}
	return stats.Drift(e.cards, cards) <= thr
}

// Peek reports (without mutating statistics, hysteresis, or LRU order)
// whether a policy-fresh artifact is cached under k for cards — the JIT's
// switchover probes poll this from hot paths where Lookup's side effects
// would skew accounting.
func (c *Cache[T]) Peek(k Key, cards []int) (val T, ok bool) {
	vk := viewKey{class: c.class, key: k}
	sh := c.store.shardFor(vk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bucket := sh.buckets[vk]
	if bucket == nil {
		return val, false
	}
	e := bucket.bands[bandSig(cards, bucket.widen)]
	if e == nil || !c.fresh(e, cards, bucket.widen) {
		if !c.crossBand {
			return val, false
		}
		if e = c.freshest(bucket, cards); e == nil {
			return val, false
		}
	}
	v, isT := e.val.(T)
	return v, isT
}

// Contains reports whether any entry (of any band, any freshness) is cached
// under k — the cheap existence pre-test before computing a cardinality
// vector for Peek.
func (c *Cache[T]) Contains(k Key) bool {
	vk := viewKey{class: c.class, key: k}
	sh := c.store.shardFor(vk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.buckets[vk]
	return b != nil && len(b.bands) > 0
}

// Store caches v under k for the band of cards (under the key's current
// hysteresis widening), evicting least-recently-used entries when the
// store's LRU bound is exceeded.
func (c *Cache[T]) Store(k Key, counters []uint64, cards []int, v T) {
	vk := viewKey{class: c.class, key: k}
	sh := c.store.shardFor(vk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats[c.class].Stores++
	bucket := sh.buckets[vk]
	if bucket == nil {
		bucket = &keyBucket{bands: make(map[string]*entry)}
		sh.buckets[vk] = bucket
	}
	band := bandSig(cards, bucket.widen)
	gen := c.store.gen.Load()
	if e := bucket.bands[band]; e != nil {
		e.val = v
		e.cards = append(e.cards[:0], cards...)
		e.counters = append(e.counters[:0], counters...)
		e.gen = gen
		sh.touch(e)
		return
	}
	e := &entry{
		val:      v,
		cards:    append([]int(nil), cards...),
		counters: append([]uint64(nil), counters...),
		gen:      gen,
		vk:       vk,
		band:     band,
	}
	bucket.bands[band] = e
	sh.pushFront(e)
	sh.entries++
	if lim := c.store.perShard; lim > 0 {
		for sh.entries > lim && sh.tail != nil && sh.tail != e {
			victim := sh.tail
			sh.stats[victim.vk.class].Evictions++
			sh.evict(victim)
		}
	}
}

// Len returns the number of cached entries across this view's keys and
// bands.
func (c *Cache[T]) Len() int {
	n := 0
	for i := range c.store.shards {
		sh := &c.store.shards[i]
		sh.mu.Lock()
		for vk, b := range sh.buckets {
			if vk.class == c.class {
				n += len(b.bands)
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Keys returns the number of distinct structural keys in this view.
func (c *Cache[T]) Keys() int { return c.store.Keys(c.class) }

// Stats aggregates this view's class counters across all lock shards.
func (c *Cache[T]) Stats() Stats { return c.store.ClassStats(c.class) }
