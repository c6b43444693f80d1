package core

import (
	"fmt"
	"testing"

	"carac/internal/jit"
	"carac/internal/optimizer"
	"carac/internal/storage"
)

// buildKitchenSink exercises every language feature at once: symbols,
// recursion through two mutually dependent relations, stratified negation,
// arithmetic builtins, and aggregation on top.
func buildKitchenSink(t testing.TB) *Program {
	t.Helper()
	p := NewProgram()
	flight := p.Relation("flight", 3) // from, to, cost
	reach := p.Relation("reach", 3)   // from, to, totalcost
	city := p.Relation("city", 1)
	unreachable := p.Relation("unreachable", 2)
	reachCount := p.Relation("reachCount", 2)
	cheapest := p.Relation("cheapest", 2)

	a, b, c := NewVar("a"), NewVar("b"), NewVar("c")
	k1, k2, k3 := NewVar("k1"), NewVar("k2"), NewVar("k3")
	n := NewVar("n")

	p.MustRule(reach.A(a, b, k1), flight.A(a, b, k1))
	// reach(a,c,k3) :- reach(a,b,k1), flight(b,c,k2), k3 = k1+k2, k3 <= 500.
	p.MustRule(reach.A(a, c, k3),
		reach.A(a, b, k1), flight.A(b, c, k2), Add(k1, k2, k3), Le(k3, 500))
	// unreachable(a,b) :- city(a), city(b), a != b, !reach(a,b,_): needs a
	// projection helper since negation is over full tuples.
	connected := p.Relation("connected", 2)
	p.MustRule(connected.A(a, b), reach.A(a, b, k1))
	p.MustRule(unreachable.A(a, b), city.A(a), city.A(b), Ne(a, b), Not(connected.A(a, b)))
	// Aggregations over the closure.
	p.MustAggRule(reachCount.A(a, n), 1, Count, nil, connected.A(a, b))
	p.MustAggRule(cheapest.A(a, n), 1, Min, k1, reach.A(a, b, k1))

	cities := []string{"GVA", "ZRH", "BSL", "LUG", "BRN"}
	for _, cty := range cities {
		city.MustFact(cty)
	}
	flights := []struct {
		f, t string
		c    int
	}{
		{"GVA", "ZRH", 100}, {"ZRH", "BSL", 50}, {"BSL", "GVA", 80},
		{"ZRH", "LUG", 120}, {"LUG", "ZRH", 120}, {"GVA", "BSL", 200},
	}
	for _, fl := range flights {
		flight.MustFact(fl.f, fl.t, fl.c)
	}
	// BRN has no flights: unreachable from everywhere.
	return p
}

func snapshotAll(p *Program) map[string][][]storage.Value {
	out := map[string][][]storage.Value{}
	for _, pd := range p.Catalog().Preds() {
		out[pd.Name] = pd.Derived.Snapshot()
	}
	return out
}

func sameResults(t *testing.T, name string, want map[string][][]storage.Value, p *Program) {
	t.Helper()
	for _, pd := range p.Catalog().Preds() {
		w := want[pd.Name]
		if pd.Derived.Len() != len(w) {
			t.Fatalf("%s: pred %s has %d tuples, want %d", name, pd.Name, pd.Derived.Len(), len(w))
		}
		for _, tu := range w {
			if !pd.Derived.Contains(tu) {
				t.Fatalf("%s: pred %s missing tuple %v", name, pd.Name, tu)
			}
		}
	}
}

// TestKitchenSinkAllConfigurations is the broadest differential test: every
// execution configuration must produce the same fixpoint on a program using
// symbols, recursion, builtins, stratified negation, and aggregation.
func TestKitchenSinkAllConfigurations(t *testing.T) {
	ref := buildKitchenSink(t)
	if _, err := ref.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	want := snapshotAll(ref)

	// Sanity on the reference itself.
	unreach := ref.Relation("unreachable", 2)
	if !unreach.Contains("GVA", "BRN") || unreach.Contains("GVA", "ZRH") {
		t.Fatalf("reference results wrong: %v", unreach)
	}
	cheapest := ref.Relation("cheapest", 2)
	if !cheapest.Contains("GVA", 100) {
		t.Fatal("cheapest(GVA) != 100")
	}

	type cfg struct {
		name string
		opts Options
	}
	var cfgs []cfg
	cfgs = append(cfgs,
		cfg{"naive", Options{Naive: true}},
		cfg{"indexed", Options{Indexed: true}},
		cfg{"composite", Options{Indexed: true, CompositeIndexes: true}},
		cfg{"parallel", Options{Indexed: true, ParallelUnions: true, FanoutThreshold: 1}},
		cfg{"parallel-2workers", Options{Indexed: true, ParallelUnions: true, Workers: 2, FanoutThreshold: 1}},
		cfg{"shared-plans", Options{Indexed: true, SharedPlans: true}},
		cfg{"aot-rules", Options{Indexed: true, AOT: AOTRulesOnly}},
		cfg{"aot-facts", Options{Indexed: true, AOT: AOTFactsAndRules}},
		cfg{"aliases", Options{Indexed: true, EliminateAliases: true}},
	)
	for _, be := range []jit.Backend{jit.BackendIRGen, jit.BackendLambda, jit.BackendBytecode, jit.BackendQuotes} {
		for _, g := range []jit.Granularity{jit.GranDoWhile, jit.GranUnionAll, jit.GranSPJ} {
			for _, async := range []bool{false, true} {
				cfgs = append(cfgs, cfg{
					fmt.Sprintf("jit-%v-%v-async%v", be, g, async),
					Options{Indexed: true, JIT: jit.Config{Backend: be, Granularity: g, Async: async}},
				})
			}
		}
	}
	cfgs = append(cfgs,
		cfg{"jit-quotes-snippet", Options{Indexed: true,
			JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranUnionAll, Snippet: true}}},
		cfg{"jit-lambda-snippet", Options{Indexed: true,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranDoWhile, Snippet: true}}},
		cfg{"jit-greedy", Options{Indexed: true,
			JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ,
				Optimizer: optimizer.Options{Algo: optimizer.AlgoGreedy, Selectivity: 0.5}}}},
		cfg{"jit-distinct", Options{Indexed: true,
			JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ,
				Optimizer: optimizer.Options{UseDistinctStats: true, Selectivity: 0.5}}}},
	)

	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := buildKitchenSink(t)
			if _, err := p.Run(c.opts); err != nil {
				t.Fatal(err)
			}
			sameResults(t, c.name, want, p)
		})
	}
}

// TestIncrementalEqualsFromScratch: adding facts between runs converges to
// the same fixpoint as loading everything up front (monotonicity).
func TestIncrementalEqualsFromScratch(t *testing.T) {
	scratch := buildKitchenSink(t)
	flight := scratch.Relation("flight", 3)
	flight.MustFact("BRN", "ZRH", 90)
	if _, err := scratch.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	want := snapshotAll(scratch)

	incr := buildKitchenSink(t)
	if _, err := incr.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	incr.Relation("flight", 3).MustFact("BRN", "ZRH", 90)
	if _, err := incr.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	sameResults(t, "incremental", want, incr)
}
