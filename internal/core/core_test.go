package core

import (
	"fmt"
	"strings"
	"testing"

	"carac/internal/jit"
	"carac/internal/storage"
)

func buildTC(t testing.TB, n int) (*Program, *Relation) {
	t.Helper()
	p := NewProgram()
	edge := p.Relation("edge", 2)
	tc := p.Relation("tc", 2)
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	p.MustRule(tc.A(x, y), edge.A(x, y))
	p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
	for i := 0; i < n; i++ {
		edge.MustFact(i, i+1)
	}
	return p, tc
}

func TestDSLTransitiveClosure(t *testing.T) {
	p, tc := buildTC(t, 10)
	res, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 55 {
		t.Fatalf("|tc| = %d, want 55", tc.Len())
	}
	if !tc.Contains(0, 10) || tc.Contains(10, 0) {
		t.Fatal("closure contents wrong")
	}
	if res.Duration <= 0 || res.Interp.Iterations == 0 {
		t.Fatalf("result stats missing: %+v", res)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	p, tc := buildTC(t, 8)
	for i := 0; i < 3; i++ {
		if _, err := p.Run(Options{}); err != nil {
			t.Fatal(err)
		}
		if tc.Len() != 36 {
			t.Fatalf("run %d: |tc| = %d, want 36", i, tc.Len())
		}
	}
	// Indexed rerun gives the same answer.
	if _, err := p.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 36 {
		t.Fatalf("indexed rerun: |tc| = %d", tc.Len())
	}
}

func TestAllExecutionConfigsAgree(t *testing.T) {
	type cfg struct {
		name string
		opts Options
	}
	var cfgs []cfg
	cfgs = append(cfgs,
		cfg{"interp", Options{}},
		cfg{"interp-indexed", Options{Indexed: true}},
		cfg{"naive", Options{Naive: true}},
		cfg{"aot-rules", Options{AOT: AOTRulesOnly}},
		cfg{"aot-facts", Options{AOT: AOTFactsAndRules}},
	)
	for _, b := range []jit.Backend{jit.BackendIRGen, jit.BackendLambda, jit.BackendBytecode, jit.BackendQuotes} {
		for _, g := range []jit.Granularity{jit.GranDoWhile, jit.GranUnionAll, jit.GranSPJ} {
			cfgs = append(cfgs, cfg{
				fmt.Sprintf("jit-%v-%v", b, g),
				Options{Indexed: true, JIT: jit.Config{Backend: b, Granularity: g}},
			})
		}
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, tc := buildTC(t, 12)
			if _, err := p.Run(c.opts); err != nil {
				t.Fatal(err)
			}
			if tc.Len() != 78 {
				t.Fatalf("|tc| = %d, want 78", tc.Len())
			}
		})
	}
}

func TestSymbolsInDSL(t *testing.T) {
	p := NewProgram()
	inv := p.Relation("inverse", 2)
	call := p.Relation("call", 2)
	wasted := p.Relation("wasted", 2)
	f, g := NewVar("f"), NewVar("g")
	p.MustRule(wasted.A(f, g), call.A(f, g), inv.A(g, f))
	inv.MustFact("deserialize", "serialize")
	call.MustFact("serialize", "deserialize")
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if !wasted.Contains("serialize", "deserialize") {
		t.Fatal("symbolic join failed")
	}
	var got []string
	wasted.Each(func(tu []storage.Value) bool {
		got = append(got, p.Format(tu[0])+"/"+p.Format(tu[1]))
		return true
	})
	if len(got) != 1 || got[0] != "serialize/deserialize" {
		t.Fatalf("formatted = %v", got)
	}
}

func TestAggRuleDSL(t *testing.T) {
	p := NewProgram()
	e := p.Relation("e", 2)
	outdeg := p.Relation("outdeg", 2)
	total := p.Relation("total", 2)
	x, y, n := NewVar("x"), NewVar("y"), NewVar("n")
	p.MustAggRule(outdeg.A(x, n), 1, Count, nil, e.A(x, y))
	w := NewVar("w")
	p.MustAggRule(total.A(x, n), 1, Sum, w, outdeg.A(x, w))
	e.MustFact(1, 2)
	e.MustFact(1, 3)
	e.MustFact(2, 3)
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if !outdeg.Contains(1, 2) || !outdeg.Contains(2, 1) {
		t.Fatal("count aggregation wrong")
	}
	if !total.Contains(1, 2) {
		t.Fatal("sum aggregation wrong")
	}
}

func TestNegationDSL(t *testing.T) {
	p := NewProgram()
	num := p.Relation("num", 1)
	comp := p.Relation("composite", 1)
	prime := p.Relation("prime", 1)
	a, b, c, q := NewVar("a"), NewVar("b"), NewVar("c"), NewVar("q")
	p.MustRule(comp.A(c), num.A(a), num.A(b), Mul(a, b, c), num.A(c))
	p.MustRule(prime.A(q), num.A(q), Not(comp.A(q)))
	for i := 2; i <= 30; i++ {
		num.MustFact(i)
	}
	if _, err := p.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29} {
		if !prime.Contains(v) {
			t.Fatalf("missing prime %d", v)
		}
	}
	if prime.Len() != 10 {
		t.Fatalf("|prime| = %d, want 10", prime.Len())
	}
}

func TestAOTStagesProduceSameResults(t *testing.T) {
	for _, aot := range []AOTStage{AOTNone, AOTRulesOnly, AOTFactsAndRules} {
		p, tc := buildTC(t, 15)
		if _, err := p.Run(Options{AOT: aot, Indexed: true}); err != nil {
			t.Fatal(err)
		}
		if tc.Len() != 120 {
			t.Fatalf("AOT %d: |tc| = %d, want 120", aot, tc.Len())
		}
	}
}

func TestEliminateAliasesOption(t *testing.T) {
	p := NewProgram()
	edge := p.Relation("edge", 2)
	e2 := p.Relation("e2", 2)
	tc := p.Relation("tc", 2)
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	p.MustRule(e2.A(x, y), edge.A(x, y))
	p.MustRule(tc.A(x, y), e2.A(x, y))
	p.MustRule(tc.A(x, y), tc.A(x, z), e2.A(z, y))
	for i := 0; i < 6; i++ {
		edge.MustFact(i, i+1)
	}
	res, err := p.Run(Options{EliminateAliases: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if tc.Len() != 21 {
		t.Fatalf("|tc| = %d, want 21", tc.Len())
	}
}

func TestErrorsSurface(t *testing.T) {
	p := NewProgram()
	e := p.Relation("e", 2)
	out := p.Relation("out", 1)
	x, w := NewVar("x"), NewVar("w")
	if err := p.Rule(out.A(w), e.A(x, x)); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("unsafe rule error = %v", err)
	}
	if err := p.Rule(out.A(x), Atom{kind: 0, pred: e.id, terms: []any{3.14, x}}); err == nil {
		t.Fatal("float term accepted")
	}
	if err := e.Fact(1); err == nil {
		t.Fatal("arity-mismatched fact accepted")
	}
	if err := e.Fact(-5, 1); err == nil {
		t.Fatal("negative fact value accepted")
	}
}

func TestFrozenAfterRun(t *testing.T) {
	p, _ := buildTC(t, 3)
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	out := p.Relation("out", 1)
	x, y := NewVar("x"), NewVar("y")
	e := p.Relation("edge", 2)
	if err := p.Rule(out.A(x), e.A(x, y)); err == nil {
		t.Fatal("rule added after Run")
	}
	if err := p.LoadSource(".decl q(x:number)"); err == nil {
		t.Fatal("source loaded after Run")
	}
}

func TestLoadSourceIntoDSLProgram(t *testing.T) {
	p := NewProgram()
	if err := p.LoadSource(`
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
edge(1,2). edge(2,3).
tc(x,y) :- edge(x,y).
tc(x,y) :- tc(x,z), edge(z,y).
`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	tc := p.Relation("tc", 2)
	if tc.Len() != 3 {
		t.Fatalf("|tc| = %d, want 3", tc.Len())
	}
}

func TestJITStatsInResult(t *testing.T) {
	p, _ := buildTC(t, 30)
	res, err := p.Run(Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranDoWhile}})
	if err != nil {
		t.Fatal(err)
	}
	if res.JIT.Compilations == 0 {
		t.Fatalf("JIT stats missing: %+v", res.JIT)
	}
}

// TestContainsNeverAliases: Contains encodes its arguments without interning
// and answers false for what no stored tuple can hold. A negative int is not
// a symbol's id in disguise, and an int past 32 bits does not wrap onto a
// stored value — on Relation and Session alike.
func TestContainsNeverAliases(t *testing.T) {
	p := NewProgram()
	owns := p.Relation("owns", 2)
	has := p.Relation("has", 2)
	x, y := NewVar("x"), NewVar("y")
	p.MustRule(has.A(x, y), owns.A(x, y))
	owns.MustFact("a", 5)
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	sym, ok := p.cat.Symbols.Lookup("a")
	if !ok || sym >= 0 {
		t.Fatalf("symbol a interned as %d", sym)
	}
	check := func(who string, contains func(args ...any) bool) {
		t.Helper()
		if !contains("a", 5) || !contains(sym, storage.Value(5)) {
			t.Fatalf("%s: the derived tuple (a, 5) is missing", who)
		}
		for _, args := range [][]any{
			{int(sym), 5},    // a negative int aliasing the symbol's id
			{"a", 1<<32 + 5}, // an int wrapping onto 5
			{"a", -1},        // a negative int
			{"b", 5},         // an unknown symbol
			{"a", 5.0},       // an unsupported type
			{"a", int64(5)},  // likewise
			{"a", uint32(5)}, // likewise
			{"a", storage.Value(6)},
		} {
			if contains(args...) {
				t.Fatalf("%s: Contains%v = true", who, args)
			}
		}
		if _, ok := p.cat.Symbols.Lookup("b"); ok {
			t.Fatalf("%s: Contains interned a symbol", who)
		}
	}
	check("Relation", has.Contains)

	srv, err := p.Serve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Query(); err != nil {
		t.Fatal(err)
	}
	check("Session", func(args ...any) bool { return sess.Contains(has, args...) })
}
