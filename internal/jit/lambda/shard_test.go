package lambda

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// shardFixture lowers the TC program, physically shards every predicate on
// column 0, seeds a mid-fixpoint state (edge ground facts derived, tc's
// DeltaKnown carrying the edge pairs), and compiles the recursive rule into
// a ShardUnit.
func shardFixture(t *testing.T, shards int) (*storage.Catalog, interp.ShardUnit) {
	t.Helper()
	cat, root := lowerSrc(t, tcSrc)
	keyCols := map[storage.PredID]int{}
	cat.ConfigureShardsPhysical(shards, keyCols)
	edge, _ := cat.PredByName("edge")
	tc, _ := cat.PredByName("tc")
	edge.BuildIndexes([]int{0})
	tc.BuildIndexes([]int{0, 1})
	tc.DeltaKnown.InsertAll(edge.Derived)

	var rule *ir.UnionRuleOp
	ir.Walk(root, func(o ir.Op) {
		if r, ok := o.(*ir.UnionRuleOp); ok && rule == nil {
			for _, s := range r.Subqueries {
				if s.DeltaAtom() >= 0 {
					rule = r
				}
			}
		}
	})
	if rule == nil {
		t.Fatal("no recursive rule found")
	}
	unit, err := Compiler{}.CompileShard(rule, cat)
	if err != nil {
		t.Fatal(err)
	}
	return cat, unit
}

// newFacts rotates name's deltas and returns δ's rows, sorted: the facts the
// units found, whether δ′ held them (a physical δ′) or lent them from
// Derived (a flat one).
func newFacts(cat *storage.Catalog, name string) []string {
	pd, _ := cat.PredByName(name)
	pd.SwapClear()
	var rows []string
	pd.DeltaKnown.Each(func(row []storage.Value) bool {
		rows = append(rows, fmt.Sprint(row))
		return true
	})
	sort.Strings(rows)
	return rows
}

// TestShardUnitSpanCoverage: for every span decomposition of the bucket
// range, the union of the spans' derivations equals the unrestricted
// evaluation — no bucket dropped, none duplicated (DeltaNew's dedup would
// hide duplicates, so the derivation counter is compared too).
func TestShardUnitSpanCoverage(t *testing.T) {
	const shards = 4
	refCat, refUnit := shardFixture(t, shards)
	refIn := interp.New(refCat, nil)
	if err := refUnit(refIn, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	want := newFacts(refCat, "tc")
	if len(want) == 0 {
		t.Fatal("reference run derived nothing — fixture too small")
	}
	for _, spans := range [][][2]int{
		{{0, 4}},                         // one full-range task
		{{0, 2}, {2, 2}},                 // two half-range tasks
		{{0, 1}, {1, 1}, {2, 1}, {3, 1}}, // one task per bucket
		{{0, 3}, {3, 1}},                 // uneven split
	} {
		cat, unit := shardFixture(t, shards)
		in := interp.New(cat, nil)
		for _, sp := range spans {
			if err := unit(in, sp[0], sp[1], shards); err != nil {
				t.Fatal(err)
			}
		}
		got := newFacts(cat, "tc")
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("spans %v derived %v, want %v", spans, got, want)
		}
		if in.Stats.Derivations != refIn.Stats.Derivations {
			t.Fatalf("spans %v counted %d derivations, reference %d", spans, in.Stats.Derivations, refIn.Stats.Derivations)
		}
	}
}

// TestShardUnitConcurrentSpans: invocations over disjoint spans are safe to
// run concurrently — per-invocation frames, bucket-local reads, private
// lists. Derivations land in per-goroutine append-only lists (the pool's
// shape) and are folded through Emit afterwards, as the merge barrier does.
func TestShardUnitConcurrentSpans(t *testing.T) {
	const shards = 8
	refCat, refUnit := shardFixture(t, shards)
	if err := refUnit(interp.New(refCat, nil), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	want := newFacts(refCat, "tc")

	cat, unit := shardFixture(t, shards)
	tc, _ := cat.PredByName("tc")
	var wg sync.WaitGroup
	errs := make([]error, shards)
	bufs := make([]*interp.RowList, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			buf := interp.NewRowList(2)
			bufs[s] = buf
			sub := interp.NewBuffered(cat, func(storage.PredID) *interp.RowList { return buf })
			errs[s] = unit(sub, s, 1, shards)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("span %d: %v", s, err)
		}
	}
	for _, buf := range bufs {
		buf.Each(func(row []storage.Value) bool {
			tc.Emit(row)
			return true
		})
	}
	got := newFacts(cat, "tc")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("concurrent spans derived %v, want %v", got, want)
	}
}

// TestShardUnitLayoutAgnostic: a unit compiled under one partition layout
// stays correct when the relations are dissolved — the layout is resolved per
// invocation, which is what keeps cached units valid across mode
// transitions. A task restricted to a bucket span over a delta without that
// partition is a wiring bug, and panics instead of filtering rows by hash.
func TestShardUnitLayoutAgnostic(t *testing.T) {
	refCat, refUnit := shardFixture(t, 4)
	if err := refUnit(interp.New(refCat, nil), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	want := newFacts(refCat, "tc")

	cat, unit := shardFixture(t, 4)
	cat.ConfigureShardsPhysical(0, nil)
	in := interp.New(cat, nil)
	if err := unit(in, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := newFacts(cat, "tc"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dissolved layout derived %v, want %v", got, want)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a restricted task over a flat delta did not panic")
			}
		}()
		_ = unit(in, 1, 1, 4)
	}()
}

// TestShardCompileRejectsAggregation: aggregation rules cannot be evaluated
// per span (partial groups); CompileShard must refuse so the controller
// caches a failure marker and the tasks stay interpreted.
func TestShardCompileRejectsAggregation(t *testing.T) {
	cat := storage.NewCatalog()
	sink := cat.Declare("deg", 2)
	edge := cat.Declare("edge", 2)
	spj := &ir.SPJOp{
		Sink:     sink,
		Head:     []ir.ProjElem{{Var: 0}, {Var: 2}},
		NumVars:  3,
		DeltaIdx: -1,
		Agg:      ast.AggSpec{Kind: ast.AggCount, HeadPos: 1},
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: edge, Terms: []ast.Term{ast.V(0), ast.V(1)}},
		},
	}
	if _, err := (Compiler{}).CompileShard(spj, cat); err == nil {
		t.Fatal("aggregation subquery accepted for shard compilation")
	}
}
