// Package plancache is the JIT's store of compiled units under the paper's
// one reuse rule: a unit is served while "the cardinalities of the relations
// it joins have not drifted beyond a relative threshold since it was
// compiled" (§V-B2). A miss on a known key is the caller's cue to reorder
// the join with live statistics and recompile.
//
// A Store is one map behind one mutex, from a class-tagged structural key
// to the entries compiled for it, one per cardinality regime, so a key
// returning to an earlier regime reuses the unit built for it. core hangs
// one off the Program so later Runs start warm. Interpreter goroutines and
// the JIT's compile worker touch it, pool workers never. Cached artifacts
// must be immutable. The interpreter caches no plans; the plan-class names
// (KeyFor, ClassPlans, New) stay because perf/ measures the store with them.
package plancache

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Policy is the re-optimization policy: an artifact built at cardinalities
// old stays fresh while Drift(old, cur) is at most Threshold. A non-positive
// Threshold selects 0.5, the paper's freshness-sweep sweet spot (§VI-E).
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

// Key identifies one cacheable artifact within its class: a canonical
// structural fingerprint of the code it evaluates. Reordering a subquery's
// atoms changes the fingerprint; renaming variables does not.
type Key struct {
	Sig string
}

// fp accumulates a structural fingerprint. With canonical predicate
// numbering (preds non-nil) each distinct predicate maps to a dense index in
// first-occurrence order, keeping the equality pattern, not the identity.
type fp struct {
	b     strings.Builder
	preds map[storage.PredID]uint32
}

func (f *fp) put32(v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	f.b.Write(w[:])
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
// predicate and term pattern in the current atom order. Variable IDs are
// rule-local dense indices, invariant under variable naming.
func (f *fp) spj(spj *ir.SPJOp) {
	f.put32(f.pred(spj.Sink))
	f.put32(uint32(spj.NumVars))
	f.b.WriteByte(byte(spj.Agg.Kind))
	f.put32(uint32(spj.Agg.HeadPos))
	f.put32(uint32(spj.Agg.OverVar))
	for _, h := range spj.Head {
		if h.IsConst {
			f.b.WriteByte('c')
			f.put32(uint32(h.Const))
		} else {
			f.b.WriteByte('v')
			f.put32(uint32(h.Var))
		}
	}
	f.b.WriteByte(0xfe)
	for _, a := range spj.Atoms {
		f.b.Write([]byte{byte(a.Kind), byte(a.Src), byte(a.Builtin)})
		if a.IsRelational() {
			f.put32(f.pred(a.Pred))
		}
		for _, t := range a.Terms {
			f.b.WriteByte(byte(t.Kind))
			if t.Kind == ast.TermConst {
				f.put32(uint32(t.Val))
			} else {
				f.put32(uint32(t.Var))
			}
		}
		f.b.WriteByte(0xff)
	}
}

// spjLen is the length of what spj appends.
func spjLen(spj *ir.SPJOp) int {
	n := 17 + 5*len(spj.Head) + 1
	for _, a := range spj.Atoms {
		n += 4 + 5*len(a.Terms)
		if a.IsRelational() {
			n += 4
		}
	}
	return n
}

func (f *fp) preds32(ps []storage.PredID) {
	f.put32(uint32(len(ps)))
	for _, p := range ps {
		f.put32(uint32(p))
	}
}

// KeyFor derives the canonical structural cache key of an SPJ subquery in
// its current atom order. Predicates are numbered by first occurrence (sink
// first), so rules that differ only by predicate renaming share one key.
// Kept because perf/ measures lookups under it.
func KeyFor(spj *ir.SPJOp) Key {
	f := fp{preds: make(map[storage.PredID]uint32, 4)}
	f.b.Grow(spjLen(spj))
	f.spj(spj)
	return Key{Sig: f.b.String()}
}

// KeyForOp fingerprints an IR subtree with *concrete* predicate identity,
// since compiled units hard-code the predicates they read and sink into. The
// fingerprint is stable across re-lowerings of the same program, so a later
// Run resolves to the units an earlier Run compiled. tag bytes (e.g. backend
// and snippet mode) prefix the signature so differently produced units
// never collide.
func KeyForOp(op ir.Op, tag ...byte) Key {
	// Size the signature first, so that it takes one allocation.
	n := len(tag)
	ir.Walk(op, func(o ir.Op) {
		n++
		switch o := o.(type) {
		case *ir.ProgramOp, *ir.UnionRuleOp:
			n += 4
		case *ir.DoWhileOp:
			n += 8 + 4*len(o.Preds)
		case *ir.ScanOp:
			n += 4 + 4*len(o.Preds)
		case *ir.SwapClearOp:
			n += 4 + 4*len(o.Preds)
		case *ir.UnionAllOp:
			n += 8
		case *ir.SPJOp:
			n += spjLen(o)
		}
	})
	var f fp
	f.b.Grow(n)
	f.b.Write(tag)
	ir.Walk(op, func(o ir.Op) {
		f.b.WriteByte(byte(o.Kind()))
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
	return Key{Sig: f.b.String()}
}

// Class partitions the store's key space between artifact kinds, so equal
// signatures of different kinds never serve each other.
type Class uint8

const (
	// ClassPlans was the interpreter access-plan view; nothing stores in it.
	// Kept because perf/ names it.
	ClassPlans Class = iota
	// ClassUnits is the JIT compiled-unit view.
	ClassUnits
	numClasses
)

// Stats counts cache activity.
type Stats struct {
	Hits       int64 // lookups that served a cached artifact
	ColdMisses int64 // lookups that found no entry for the key
	// StaleDrops found entries for the key but none within the policy
	// threshold: the JIT's freshness failure, a re-optimization cue.
	StaleDrops int64
	// CrossRunHits is the subset of Hits served by an entry stored under an
	// earlier store generation (core bumps the generation per Run).
	CrossRunHits int64
	// BandMisses is always zero: the store has no cardinality bands. Kept
	// because perf/ reads it.
	BandMisses int64
	Stores     int64 // entries written, replacements included
}

// Sub returns the field-wise difference s - o: the activity between two
// snapshots of one long-lived store.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:         s.Hits - o.Hits,
		CrossRunHits: s.CrossRunHits - o.CrossRunHits,
		ColdMisses:   s.ColdMisses - o.ColdMisses,
		BandMisses:   s.BandMisses - o.BandMisses,
		StaleDrops:   s.StaleDrops - o.StaleDrops,
		Stores:       s.Stores - o.Stores,
	}
}

// viewKey is the store-internal key: a class-tagged structural fingerprint.
type viewKey struct {
	class Class
	key   Key
}

// entry is one cached artifact with the cardinalities it was compiled at,
// the drift counters last seen when served, and its store generation.
type entry struct {
	val      any
	cards    []int
	counters []uint64
	gen      uint64
}

// DefaultStoreLimit is the entry bound of the Program-lifetime store:
// generous next to real workloads (tens of rules × a few regimes each).
const DefaultStoreLimit = 4096

// Store owns one key space shared by all typed Cache views. core hangs one
// off the Program (Program.PlanStore) and bumps its generation per Run.
// Construct with NewStore; the zero value is not usable.
type Store struct {
	limit int // entry bound; 0 = unbounded
	gen   atomic.Uint64

	mu      sync.Mutex
	n       int // entries across all keys
	entries map[viewKey][]entry
	stats   [numClasses]Stats
}

// NewStore builds an empty store. A store holding limit entries stores no
// new one (a replacement still lands); limit <= 0 is unbounded.
func NewStore(limit int) *Store {
	s := &Store{limit: max(limit, 0), entries: make(map[viewKey][]entry)}
	s.gen.Store(1)
	return s
}

// BumpGeneration starts a new store generation: hits on entries stored
// under an earlier one count as CrossRunHits. core bumps once per Run.
func (s *Store) BumpGeneration() { s.gen.Add(1) }

// Generation returns the current store generation.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// ClassStats returns one class's activity.
func (s *Store) ClassStats(c Class) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats[c]
}

// Len returns the number of cached entries across all classes and keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Keys returns the number of distinct structural keys cached for a class.
func (s *Store) Keys(c Class) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for vk := range s.entries {
		if vk.class == c {
			n++
		}
	}
	return n
}

// indexOf returns the position of vk's entry compiled at cards, or -1.
func (s *Store) indexOf(vk viewKey, cards []int) int {
	return slices.IndexFunc(s.entries[vk], func(e entry) bool { return slices.Equal(e.cards, cards) })
}

// add appends e under vk unless the store is full, reporting whether it did.
func (s *Store) add(vk viewKey, e entry) bool {
	if s.limit > 0 && s.n >= s.limit {
		return false
	}
	s.entries[vk] = append(s.entries[vk], e)
	s.n++
	return true
}

// ViewConfig configures one typed view over a Store.
type ViewConfig struct {
	Class  Class  // the view's key space
	Policy Policy // the drift gate artifacts are served under
}

// Cache is a typed, drift-gated view over one class of a Store's key space.
// Any number may be built over one store; construct with View or New.
type Cache[T any] struct {
	store *Store
	class Class
	pol   Policy
}

// View builds a typed view over store.
func View[T any](store *Store, cfg ViewConfig) *Cache[T] {
	return &Cache[T]{store: store, class: cfg.Class, pol: cfg.Policy}
}

// New builds a self-contained cache: a plan-class view over a fresh
// unbounded private store. Kept because perf/ measures lookups through it.
func New[T any](pol Policy) *Cache[T] {
	return View[T](NewStore(0), ViewConfig{Class: ClassPlans, Policy: pol})
}

// find returns the position of the entry to serve at cards: one whose drift
// counters equal non-nil counters (nothing it reads has changed, so no drift
// is computed), else the one of least drift within the policy threshold; -1
// when none is fresh.
func (c *Cache[T]) find(list []entry, counters []uint64, cards []int) int {
	if i := slices.IndexFunc(list, func(e entry) bool { return stats.CountersEqual(e.counters, counters) }); i >= 0 && counters != nil {
		return i
	}
	best, bestD := -1, math.Inf(1)
	for i := range list {
		if d := stats.Drift(list[i].cards, cards); d < bestD {
			best, bestD = i, d
		}
	}
	if bestD > c.pol.threshold() {
		return -1
	}
	return best
}

// Lookup fetches the artifact cached under k for the current cardinalities;
// counters is the drift-counter vector of the relations it reads. stale
// reports a known key with no fresh entry — the regime moved — the caller's
// cue to re-optimize the join order before rebuilding.
func (c *Cache[T]) Lookup(k Key, counters []uint64, cards []int) (val T, ok bool, stale bool) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.stats[c.class]
	list := s.entries[viewKey{class: c.class, key: k}]
	if len(list) == 0 {
		st.ColdMisses++
		return val, false, false
	}
	i := c.find(list, counters, cards)
	if i < 0 {
		st.StaleDrops++
		return val, false, true
	}
	e := &list[i]
	v, isT := e.val.(T)
	if !isT { // two views share a class with different T: treat as absent
		st.ColdMisses++
		return val, false, false
	}
	// Drift stays anchored to the build-time cardinalities; the refreshed
	// counters let the next unchanged-world lookup skip the drift scan.
	e.counters = append(e.counters[:0], counters...)
	st.Hits++
	if e.gen != s.gen.Load() {
		st.CrossRunHits++
	}
	return v, true, false
}

// Peek is Lookup's drift scan without side effects — the JIT's switchover
// probes poll it where Lookup's accounting would skew the counters.
func (c *Cache[T]) Peek(k Key, cards []int) (val T, ok bool) {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	list := c.store.entries[viewKey{class: c.class, key: k}]
	if i := c.find(list, nil, cards); i >= 0 {
		val, ok = list[i].val.(T)
	}
	return val, ok
}

// Contains reports whether any entry is cached under k — the cheap
// pre-test before computing a cardinality vector for Peek.
func (c *Cache[T]) Contains(k Key) bool {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	return len(c.store.entries[viewKey{class: c.class, key: k}]) > 0
}

// Store caches v under k for cards: it replaces the entry compiled at equal
// cardinalities, or else appends one unless the store is full.
func (c *Cache[T]) Store(k Key, counters []uint64, cards []int, v T) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	vk := viewKey{class: c.class, key: k}
	gen := s.gen.Load()
	if i := s.indexOf(vk, cards); i >= 0 {
		e := &s.entries[vk][i]
		e.val, e.gen = v, gen
		e.counters = append(e.counters[:0], counters...)
	} else if !s.add(vk, entry{val: v, cards: slices.Clone(cards), counters: slices.Clone(counters), gen: gen}) {
		return
	}
	s.stats[c.class].Stores++
}

// Stats returns this view's class counters.
func (c *Cache[T]) Stats() Stats { return c.store.ClassStats(c.class) }
