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

// shardFixture lowers the TC program, seeds a mid-fixpoint state (tc's
// Derived and δ carrying the edge pairs: δ lent from Derived by SeedAll, or
// holding its own copies, as a warm start's Seed leaves it), and compiles
// the recursive rule into a ShardUnit.
func shardFixture(t *testing.T, lent bool) (*storage.Catalog, interp.ShardUnit) {
	t.Helper()
	cat, root := lowerSrc(t, tcSrc)
	edge, _ := cat.PredByName("edge")
	tc, _ := cat.PredByName("tc")
	edge.BuildIndexes([]int{0})
	tc.BuildIndexes([]int{0, 1})
	tc.Derived.InsertAll(edge.Derived)
	if lent {
		tc.SeedAll()
	} else {
		tc.Derived.Each(func(row []storage.Value) bool {
			tc.Seed(row)
			return true
		})
	}
	tc.SwapClear()
	tc.DeltaKnown.EnsureIndexes()

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
// units found, which δ′ is owed and then lent from Derived.
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

// TestShardUnitSpanCoverage: for every decomposition of δ into morsels —
// tasks lo..hi of n, reading rows [L·lo/n, L·hi/n) — the union of the
// tasks' derivations equals the unrestricted evaluation, no row dropped and
// none duplicated (DeltaNew's dedup would hide duplicates, so the match and
// derivation counters are compared too).
func TestShardUnitSpanCoverage(t *testing.T) {
	refCat, refUnit := shardFixture(t, true)
	refIn := interp.New(refCat, nil)
	if err := refUnit(refIn, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	want := newFacts(refCat, "tc")
	if len(want) == 0 {
		t.Fatal("reference run derived nothing — fixture too small")
	}
	for _, tasks := range [][][3]int{
		{{0, 4, 4}},            // one task over all of δ
		{{0, 2, 4}, {2, 4, 4}}, // two halves
		{{0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {3, 4, 4}}, // four quarters
		{{0, 3, 4}, {3, 4, 4}},                       // uneven split
		{{0, 1, 7}, {1, 5, 7}, {5, 7, 7}},            // sevenths
	} {
		cat, unit := shardFixture(t, true)
		in := interp.New(cat, nil)
		for _, task := range tasks {
			if err := unit(in, task[0], task[1], task[2]); err != nil {
				t.Fatal(err)
			}
		}
		got := newFacts(cat, "tc")
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("tasks %v derived %v, want %v", tasks, got, want)
		}
		if in.Stats.Matches != refIn.Stats.Matches || in.Stats.Derivations != refIn.Stats.Derivations {
			t.Fatalf("tasks %v counted %d matches and %d derivations, reference %d and %d",
				tasks, in.Stats.Matches, in.Stats.Derivations, refIn.Stats.Matches, refIn.Stats.Derivations)
		}
	}
}

// TestShardUnitConcurrentSpans: invocations over disjoint morsels are safe
// to run concurrently — per-invocation frames, read-only reads of the lent
// δ, private lists. Derivations land in per-goroutine append-only lists (the
// pool's shape) and are folded through Emit afterwards, as the merge
// barrier does.
func TestShardUnitConcurrentSpans(t *testing.T) {
	const shards = 8
	refCat, refUnit := shardFixture(t, true)
	if err := refUnit(interp.New(refCat, nil), 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	want := newFacts(refCat, "tc")

	cat, unit := shardFixture(t, true)
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
			errs[s] = unit(sub, s, s+1, shards)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", s, err)
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
		t.Fatalf("concurrent morsels derived %v, want %v", got, want)
	}
}

// TestShardUnitLayoutAgnostic: a unit reads δ through storage's row ranges
// whatever holds δ's rows — a view lent from Derived (SeedAll, every
// iteration's δ) or rows of δ's own (a warm start's Seed) — because it
// resolves δ and its length per invocation, which is what keeps cached
// units valid across SwapClear. Unrestricted and as three morsel tasks, both
// derive the same facts with the same counts.
func TestShardUnitLayoutAgnostic(t *testing.T) {
	var want string
	var wantStats interp.Stats
	for _, lent := range []bool{true, false} {
		for _, tasks := range []int{1, 3} {
			cat, unit := shardFixture(t, lent)
			tc, _ := cat.PredByName("tc")
			if got := tc.OldBound() == 0; got != lent {
				t.Fatalf("lent %v: δ is a view of Derived: %v", lent, got)
			}
			in := interp.New(cat, nil)
			for i := range tasks {
				if err := unit(in, i, i+1, tasks); err != nil {
					t.Fatal(err)
				}
			}
			got := fmt.Sprint(newFacts(cat, "tc"))
			if want == "" {
				want, wantStats = got, in.Stats
				continue
			}
			if got != want || in.Stats.Matches != wantStats.Matches || in.Stats.Derivations != wantStats.Derivations {
				t.Fatalf("lent %v, %d tasks: derived %s (%d matches, %d derivations), want %s (%d, %d)",
					lent, tasks, got, in.Stats.Matches, in.Stats.Derivations, want, wantStats.Matches, wantStats.Derivations)
			}
		}
	}
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
