package plancache

import (
	"fmt"
	"sync"
	"testing"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/storage"
)

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}
	if !p.Fresh([]int{100}, []int{150}) {
		t.Fatal("drift 0.5 should be fresh under the default threshold")
	}
	if p.Fresh([]int{100}, []int{151}) {
		t.Fatal("drift > 0.5 should be stale under the default threshold")
	}
	tight := Policy{Threshold: 0.01}
	if tight.Fresh([]int{100}, []int{110}) {
		t.Fatal("drift 0.1 should be stale under threshold 0.01")
	}
}

// tcSPJ builds the recursive transitive-closure subquery shape over the
// given sink/delta/edge predicate ids: sink(x,y) :- deltaδ(x,z), edge(z,y).
func tcSPJ(rule int, sink, delta, edge storage.PredID) *ir.SPJOp {
	return &ir.SPJOp{
		RuleIdx: rule,
		Sink:    delta,
		NumVars: 3,
		Head:    []ir.ProjElem{{Var: 0}, {Var: 1}},
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: sink, Terms: []ast.Term{ast.V(0), ast.V(2)}, Src: ir.SrcDelta},
			{Kind: ast.AtomRelation, Pred: edge, Terms: []ast.Term{ast.V(2), ast.V(1)}, Src: ir.SrcDerived},
		},
		DeltaIdx: 0,
	}
}

func TestKeyForDistinguishesOrders(t *testing.T) {
	spj := &ir.SPJOp{
		RuleIdx: 3,
		NumVars: 3,
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: 1, Terms: []ast.Term{ast.V(0), ast.V(1)}, Src: ir.SrcDelta},
			{Kind: ast.AtomRelation, Pred: 1, Terms: []ast.Term{ast.V(1), ast.V(2)}, Src: ir.SrcDerived},
		},
		DeltaIdx: 0,
	}
	k1 := KeyFor(spj)
	spj.Atoms[0], spj.Atoms[1] = spj.Atoms[1], spj.Atoms[0]
	k2 := KeyFor(spj)
	if k1 == k2 {
		t.Fatal("swapping atoms (same pred, different terms) must change the key")
	}
}

// TestKeyForStructuralSharing pins the fingerprint's invariances: rules that
// differ only by rule index and predicate renaming share one key, while any
// structural difference — the predicate equality pattern, a term pattern, a
// source — splits them.
func TestKeyForStructuralSharing(t *testing.T) {
	a := tcSPJ(0, 10, 10, 11)
	b := tcSPJ(7, 20, 20, 21) // renamed predicates, different rule: same shape
	if KeyFor(a) != KeyFor(b) {
		t.Fatal("structurally identical rules must share one key")
	}

	// Different predicate equality pattern: delta atom reads a predicate
	// distinct from the sink.
	c := tcSPJ(0, 10, 12, 11)
	if KeyFor(a) == KeyFor(c) {
		t.Fatal("different predicate equality patterns must not share a key")
	}

	// Different term pattern.
	d := tcSPJ(0, 10, 10, 11)
	d.Atoms[1].Terms = []ast.Term{ast.V(1), ast.V(2)}
	if KeyFor(a) == KeyFor(d) {
		t.Fatal("different variable patterns must not share a key")
	}

	// Different source assignment.
	e := tcSPJ(0, 10, 10, 11)
	e.Atoms[0].Src = ir.SrcDerived
	if KeyFor(a) == KeyFor(e) {
		t.Fatal("different delta sources must not share a key")
	}

	// Different constants.
	f := tcSPJ(0, 10, 10, 11)
	f.Atoms[1].Terms = []ast.Term{ast.V(2), ast.C(5)}
	g := tcSPJ(0, 10, 10, 11)
	g.Atoms[1].Terms = []ast.Term{ast.V(2), ast.C(6)}
	if KeyFor(f) == KeyFor(g) {
		t.Fatal("different constants must not share a key")
	}
}

// TestKeyForOpConcretePreds pins the unit-key contract: op fingerprints keep
// concrete predicate identity (a renamed-predicate clone gets its own key),
// are stable across re-builds of the same tree, and honor tag prefixes.
func TestKeyForOpConcretePreds(t *testing.T) {
	build := func(sink, delta, edge storage.PredID) ir.Op {
		return &ir.UnionRuleOp{Subqueries: []*ir.SPJOp{tcSPJ(0, sink, delta, edge)}}
	}
	if KeyForOp(build(10, 10, 11)) != KeyForOp(build(10, 10, 11)) {
		t.Fatal("identical subtrees must share one unit key across rebuilds")
	}
	if KeyForOp(build(10, 10, 11)) == KeyForOp(build(20, 20, 21)) {
		t.Fatal("unit keys must keep concrete predicate identity")
	}
	if KeyForOp(build(10, 10, 11), 1) == KeyForOp(build(10, 10, 11), 2) {
		t.Fatal("unit keys must honor tag prefixes")
	}
}

func TestCacheLifecycle(t *testing.T) {
	c := New[string](Policy{})
	k := Key{Sig: "sig"}

	// Cold miss.
	if _, ok, stale := c.Lookup(k, []uint64{1}, []int{10}); ok || stale {
		t.Fatalf("cold lookup: ok=%v stale=%v", ok, stale)
	}
	c.Store(k, []uint64{1}, []int{10}, "plan-a")

	// Counters-equal hit: nothing the artifact reads has changed.
	v, ok, _ := c.Lookup(k, []uint64{1}, []int{10})
	if !ok || v != "plan-a" {
		t.Fatalf("counters-equal hit failed: %v %v", v, ok)
	}
	// Drift hit: counters moved but cards within the threshold.
	v, ok, _ = c.Lookup(k, []uint64{2}, []int{14})
	if !ok || v != "plan-a" {
		t.Fatalf("drift hit failed: %v %v", v, ok)
	}
	// Regime change: cards drifted past the threshold.
	if _, ok, stale := c.Lookup(k, []uint64{3}, []int{160}); ok || !stale {
		t.Fatalf("regime change should be a stale miss, ok=%v stale=%v", ok, stale)
	}
	c.Store(k, []uint64{3}, []int{160}, "plan-b")
	// Returning to the original regime reuses the plan built for it.
	v, ok, _ = c.Lookup(k, []uint64{4}, []int{11})
	if !ok || v != "plan-a" {
		t.Fatalf("regime return should reuse plan-a: %v %v", v, ok)
	}

	st := c.Stats()
	if st.Hits != 3 || st.ColdMisses != 1 || st.StaleDrops != 1 || st.BandMisses != 0 || st.Stores != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if n := c.store.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if n := c.store.Keys(ClassPlans); n != 1 {
		t.Fatalf("Keys = %d, want 1", n)
	}
}

// TestCacheStaleDrop: a lookup past the threshold of every entry reports
// stale and counts a StaleDrop, and the entry stays for its own regime.
func TestCacheStaleDrop(t *testing.T) {
	c := New[int](Policy{Threshold: 0.1})
	k := Key{Sig: "x"}
	c.Store(k, []uint64{1}, []int{1000}, 42)
	if _, ok, _ := c.Lookup(k, []uint64{2}, []int{1023}); !ok {
		t.Fatal("small drift should hit")
	}
	// Drift 0.3 > 0.1.
	if _, ok, stale := c.Lookup(k, []uint64{3}, []int{700}); ok || !stale {
		t.Fatalf("over-threshold drift should miss stale: ok=%v stale=%v", ok, stale)
	}
	if st := c.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok, _ := c.Lookup(k, []uint64{4}, []int{1000}); !ok || v != 42 {
		t.Fatalf("entry lost after a stale miss: ok=%v v=%d", ok, v)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New[int](Policy{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Sig: fmt.Sprintf("r%d-s%d", i%5, i%3)}
				counters := []uint64{uint64(i)}
				cards := []int{i % 50}
				if _, ok, _ := c.Lookup(k, counters, cards); !ok {
					c.Store(k, counters, cards, g*1000+i)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.store.Len() == 0 {
		t.Fatal("nothing cached")
	}
}

// TestStoreViewsIsolateClasses: two views over one store with the same
// structural key must never serve each other's artifacts, while sharing one
// entry count.
func TestStoreViewsIsolateClasses(t *testing.T) {
	s := NewStore(0)
	plans := View[string](s, ViewConfig{Class: ClassPlans, Policy: Policy{}})
	units := View[int](s, ViewConfig{Class: ClassUnits, Policy: Policy{}})
	k := Key{Sig: "shared-sig"}
	plans.Store(k, []uint64{1}, []int{10}, "a-plan")
	if _, ok, _ := units.Lookup(k, []uint64{1}, []int{10}); ok {
		t.Fatal("unit view served a plan-class entry")
	}
	units.Store(k, []uint64{1}, []int{10}, 99)
	if v, ok, _ := plans.Lookup(k, []uint64{1}, []int{10}); !ok || v != "a-plan" {
		t.Fatalf("plan view lost its entry: %v %v", v, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("store Len = %d, want 2", s.Len())
	}
	ps, us := s.ClassStats(ClassPlans), s.ClassStats(ClassUnits)
	if ps.Stores != 1 || us.Stores != 1 || us.ColdMisses != 1 {
		t.Fatalf("per-class stats mixed up: plans=%+v units=%+v", ps, us)
	}
}

// TestStoreLimit: a store holding limit entries stores no new one — neither
// a new key nor a new regime of a known key — while a replacement of an
// entry compiled at equal cardinalities still lands.
func TestStoreLimit(t *testing.T) {
	const limit = 4
	s := NewStore(limit)
	c := View[int](s, ViewConfig{Class: ClassUnits})
	for i := 0; i < 2*limit; i++ {
		c.Store(Key{Sig: fmt.Sprintf("k%d", i)}, []uint64{1}, []int{10}, i)
	}
	if got := s.Len(); got != limit {
		t.Fatalf("store holds %d entries, limit %d", got, limit)
	}
	if _, ok, stale := c.Lookup(Key{Sig: fmt.Sprintf("k%d", limit)}, []uint64{1}, []int{10}); ok || stale {
		t.Fatalf("an entry past the limit was stored: ok=%v stale=%v", ok, stale)
	}
	k0 := Key{Sig: "k0"}
	c.Store(k0, []uint64{2}, []int{1000}, -1)
	if _, ok, stale := c.Lookup(k0, []uint64{2}, []int{1000}); ok || !stale {
		t.Fatalf("a new regime past the limit was stored: ok=%v stale=%v", ok, stale)
	}
	c.Store(k0, []uint64{3}, []int{10}, 100)
	if v, ok, _ := c.Lookup(k0, []uint64{3}, []int{10}); !ok || v != 100 {
		t.Fatalf("replacement at the limit: ok=%v v=%d", ok, v)
	}
	if st := c.Stats(); st.Stores != limit+1 || s.Len() != limit {
		t.Fatalf("stores=%d len=%d, want %d and %d", st.Stores, s.Len(), limit+1, limit)
	}
}

// TestRegimeReturn: units stored at two cardinality regimes are each served
// in their own regime, the least-drift entry wins where both are fresh, and
// a third regime reports stale.
func TestRegimeReturn(t *testing.T) {
	c := View[int](NewStore(0), ViewConfig{Class: ClassUnits})
	k := Key{Sig: "unit"}
	c1, c2 := []int{10, 50}, []int{160, 50} // drift 15 > 0.5
	c.Store(k, []uint64{1}, c1, 1)
	c.Store(k, []uint64{2}, c2, 2)
	for i, tc := range []struct {
		cards []int
		want  int
	}{{c1, 1}, {c2, 2}, {[]int{12, 50}, 1}, {[]int{150, 60}, 2}, {c1, 1}} {
		if v, ok, _ := c.Lookup(k, []uint64{uint64(10 + i)}, tc.cards); !ok || v != tc.want {
			t.Fatalf("lookup %d at %v: ok=%v v=%d, want %d", i, tc.cards, ok, v, tc.want)
		}
		if v, ok := c.Peek(k, tc.cards); !ok || v != tc.want {
			t.Fatalf("peek at %v: ok=%v v=%d, want %d", tc.cards, ok, v, tc.want)
		}
	}
	c3 := []int{4000, 50}
	if _, ok, stale := c.Lookup(k, []uint64{99}, c3); ok || !stale {
		t.Fatalf("third regime: ok=%v stale=%v, want a stale miss", ok, stale)
	}
	if _, ok := c.Peek(k, c3); ok {
		t.Fatal("peek served a third regime")
	}
	// Both entries fresh: the one of least drift serves.
	c.Store(k, []uint64{3}, []int{100, 50}, 3)
	c.Store(k, []uint64{4}, []int{140, 50}, 4)
	if v, ok, _ := c.Lookup(k, []uint64{5}, []int{130, 50}); !ok || v != 4 {
		t.Fatalf("least-drift entry: ok=%v v=%d, want 4", ok, v)
	}
	if st := c.Stats(); st.StaleDrops != 1 || st.Hits != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHitAllocs: a hitting Lookup (on the counters-equal path and on the
// drift scan), Peek and Contains allocate nothing.
func TestHitAllocs(t *testing.T) {
	c := View[*int](NewStore(0), ViewConfig{Class: ClassUnits})
	k := Key{Sig: "hot"}
	one, two := 1, 2
	c.Store(k, []uint64{1, 1}, []int{10, 20}, &one)
	c.Store(k, []uint64{2, 2}, []int{1000, 20}, &two)
	same, moved := []uint64{1, 1}, []uint64{3, 3}
	near := []int{11, 21}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"lookup counters-equal", func() {
			if _, ok, _ := c.Lookup(k, same, near); !ok {
				t.Fatal("miss")
			}
		}},
		{"lookup drift", func() {
			moved[0]++ // never equal to the refreshed counters
			if _, ok, _ := c.Lookup(k, moved, near); !ok {
				t.Fatal("miss")
			}
		}},
		{"peek", func() {
			if _, ok := c.Peek(k, near); !ok {
				t.Fatal("miss")
			}
		}},
		{"contains", func() {
			if !c.Contains(k) {
				t.Fatal("miss")
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s allocates %.1f per call", tc.name, n)
		}
	}
}

// TestCrossRunGeneration: hits on entries stored before a BumpGeneration
// count as cross-run hits; same-generation hits do not.
func TestCrossRunGeneration(t *testing.T) {
	s := NewStore(0)
	c := View[int](s, ViewConfig{Class: ClassPlans, Policy: Policy{}})
	k := Key{Sig: "warm"}
	c.Store(k, []uint64{1}, []int{10}, 1)
	if _, ok, _ := c.Lookup(k, []uint64{1}, []int{10}); !ok {
		t.Fatal("same-run hit failed")
	}
	if st := c.Stats(); st.CrossRunHits != 0 {
		t.Fatalf("same-generation hit counted as cross-run: %+v", st)
	}
	s.BumpGeneration()
	if _, ok, _ := c.Lookup(k, []uint64{2}, []int{11}); !ok {
		t.Fatal("cross-run hit failed")
	}
	if st := c.Stats(); st.CrossRunHits != 1 {
		t.Fatalf("cross-run hit not counted: %+v", st)
	}
	// Re-storing under the new generation resets the provenance.
	c.Store(k, []uint64{3}, []int{10}, 2)
	if _, ok, _ := c.Lookup(k, []uint64{3}, []int{10}); !ok {
		t.Fatal("post-store hit failed")
	}
	if st := c.Stats(); st.CrossRunHits != 1 {
		t.Fatalf("fresh-generation entry counted as cross-run: %+v", st)
	}
}

// TestPeekHasNoSideEffects: Peek must leave statistics and entries
// untouched.
func TestPeekHasNoSideEffects(t *testing.T) {
	c := New[int](Policy{})
	k := Key{Sig: "peek"}
	c.Store(k, []uint64{1}, []int{10}, 5)
	before := c.Stats()
	for i := 0; i < 10; i++ {
		if v, ok := c.Peek(k, []int{10}); !ok || v != 5 {
			t.Fatalf("peek failed: v=%d ok=%v", v, ok)
		}
		if _, ok := c.Peek(k, []int{1 << 20}); ok {
			t.Fatal("peek served a stale regime")
		}
	}
	if after := c.Stats(); after != before {
		t.Fatalf("peek mutated stats: %+v -> %+v", before, after)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Hits: 10, CrossRunHits: 2, ColdMisses: 3, StaleDrops: 1, Stores: 6}
	b := Stats{Hits: 4, CrossRunHits: 1, ColdMisses: 2, StaleDrops: 0, Stores: 3}
	want := Stats{Hits: 6, CrossRunHits: 1, ColdMisses: 1, StaleDrops: 1, Stores: 3}
	if d := a.Sub(b); d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
}
