package interp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

// runSrc parses, lowers (semi-naive unless naive is set), optionally builds
// join-key indexes, runs to fixpoint, and returns the catalog and stats.
func runSrc(t *testing.T, src string, indexed, naive bool) (*storage.Catalog, Stats) {
	t.Helper()
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var root *ir.ProgramOp
	if naive {
		root, err = ir.LowerNaive(res.Program)
	} else {
		root, err = ir.Lower(res.Program)
	}
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if indexed {
		for pid, cols := range ir.JoinKeyColumns(res.Program) {
			cat.Pred(pid).BuildIndexes(cols)
		}
	}
	in := New(cat, nil)
	if err := in.Run(root); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cat, in.Stats
}

func derived(t *testing.T, cat *storage.Catalog, pred string) map[[2]storage.Value]bool {
	t.Helper()
	p, ok := cat.PredByName(pred)
	if !ok {
		t.Fatalf("predicate %q missing", pred)
	}
	out := map[[2]storage.Value]bool{}
	p.Derived.Each(func(row []storage.Value) bool {
		var k [2]storage.Value
		copy(k[:], row)
		out[k] = true
		return true
	})
	return out
}

const tcChain = `
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
edge(1,2). edge(2,3). edge(3,4).
tc(x,y) :- edge(x,y).
tc(x,y) :- tc(x,z), edge(z,y).
`

func TestTransitiveClosureChain(t *testing.T) {
	cat, stats := runSrc(t, tcChain, false, false)
	tc := derived(t, cat, "tc")
	want := [][2]storage.Value{{1, 2}, {2, 3}, {3, 4}, {1, 3}, {2, 4}, {1, 4}}
	if len(tc) != len(want) {
		t.Fatalf("tc = %v", tc)
	}
	for _, w := range want {
		if !tc[w] {
			t.Fatalf("missing %v", w)
		}
	}
	if stats.Iterations == 0 || stats.Derivations == 0 {
		t.Fatalf("stats not collected: %+v", stats)
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
edge(1,2). edge(2,3). edge(3,1).
tc(x,y) :- edge(x,y).
tc(x,y) :- tc(x,z), edge(z,y).
`
	cat, _ := runSrc(t, src, false, false)
	tc := derived(t, cat, "tc")
	if len(tc) != 9 { // complete digraph on {1,2,3}
		t.Fatalf("cycle closure size = %d, want 9", len(tc))
	}
}

// reachOracle computes reachability by repeated squaring over a dense matrix.
func reachOracle(n int, edges [][2]int) map[[2]storage.Value]bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range edges {
		adj[e[0]][e[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !adj[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if adj[k][j] {
					adj[i][j] = true
				}
			}
		}
	}
	out := map[[2]storage.Value]bool{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if adj[i][j] {
				out[[2]storage.Value{storage.Value(i), storage.Value(j)}] = true
			}
		}
	}
	return out
}

func TestTCAgainstFloydWarshallOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(10)
		var edges [][2]int
		src := ".decl edge(x:number, y:number)\n.decl tc(x:number, y:number)\n"
		for i := 0; i < n*2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			edges = append(edges, [2]int{a, b})
			src += "edge(" + itoa(a) + "," + itoa(b) + ").\n"
		}
		src += "tc(x,y) :- edge(x,y).\ntc(x,y) :- tc(x,z), edge(z,y).\n"
		cat, _ := runSrc(t, src, trial%2 == 0, false)
		got := derived(t, cat, "tc")
		want := reachOracle(n, edges)
		if len(got) != len(want) {
			t.Fatalf("trial %d: |tc| = %d, oracle %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing %v", trial, k)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSemiNaiveEqualsNaive(t *testing.T) {
	for _, src := range []string{tcChain, primesSrc, fibSrc} {
		semi, _ := runSrc(t, src, false, false)
		naive, _ := runSrc(t, src, false, true)
		for _, p := range semi.Preds() {
			np, _ := naive.PredByName(p.Name)
			if p.Derived.Len() != np.Derived.Len() {
				t.Fatalf("pred %s: semi %d != naive %d", p.Name, p.Derived.Len(), np.Derived.Len())
			}
			p.Derived.Each(func(row []storage.Value) bool {
				if !np.Derived.Contains(row) {
					t.Fatalf("pred %s: naive missing %v", p.Name, row)
				}
				return true
			})
		}
	}
}

func TestIndexedEqualsUnindexed(t *testing.T) {
	for _, src := range []string{tcChain, primesSrc, fibSrc} {
		plain, _ := runSrc(t, src, false, false)
		idx, _ := runSrc(t, src, true, false)
		for _, p := range plain.Preds() {
			ip, _ := idx.PredByName(p.Name)
			if p.Derived.Len() != ip.Derived.Len() {
				t.Fatalf("pred %s: unindexed %d != indexed %d", p.Name, p.Derived.Len(), ip.Derived.Len())
			}
		}
	}
}

const primesSrc = `
.decl num(n:number)
.decl composite(n:number)
.decl prime(n:number)
num(2). num(3). num(4). num(5). num(6). num(7). num(8). num(9). num(10).
num(11). num(12). num(13). num(14). num(15). num(16). num(17). num(18). num(19). num(20).
composite(c) :- num(a), num(b), c = a * b, num(c).
prime(p) :- num(p), !composite(p).
`

func TestPrimesWithNegation(t *testing.T) {
	cat, _ := runSrc(t, primesSrc, false, false)
	p, _ := cat.PredByName("prime")
	want := []storage.Value{2, 3, 5, 7, 11, 13, 17, 19}
	if p.Derived.Len() != len(want) {
		t.Fatalf("primes = %v", p.Derived.Snapshot())
	}
	for _, v := range want {
		if !p.Derived.Contains([]storage.Value{v}) {
			t.Fatalf("missing prime %d", v)
		}
	}
}

const fibSrc = `
.decl fib(i:number, v:number)
.decl lim(i:number)
fib(0, 0). fib(1, 1).
lim(15).
fib(j, s) :- fib(i, a), j = i + 2, lim(m), j <= m, fib(k, b), k = i + 1, s = a + b.
`

func TestFibonacciWithBuiltins(t *testing.T) {
	cat, _ := runSrc(t, fibSrc, false, false)
	p, _ := cat.PredByName("fib")
	if p.Derived.Len() != 16 {
		t.Fatalf("fib size = %d, want 16: %v", p.Derived.Len(), p.Derived.Snapshot())
	}
	if !p.Derived.Contains([]storage.Value{15, 610}) {
		t.Fatal("fib(15) != 610")
	}
	if !p.Derived.Contains([]storage.Value{10, 55}) {
		t.Fatal("fib(10) != 55")
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `
.decl n(x:number)
.decl even(x:number)
.decl odd(x:number)
n(10).
even(0).
odd(y) :- even(x), y = x + 1, n(m), y <= m.
even(y) :- odd(x), y = x + 1, n(m), y <= m.
`
	cat, _ := runSrc(t, src, false, false)
	even := derived2(t, cat, "even")
	odd := derived2(t, cat, "odd")
	if len(even) != 6 || len(odd) != 5 {
		t.Fatalf("even=%v odd=%v", even, odd)
	}
}

func derived2(t *testing.T, cat *storage.Catalog, pred string) []storage.Value {
	t.Helper()
	p, ok := cat.PredByName(pred)
	if !ok {
		t.Fatalf("predicate %q missing", pred)
	}
	var out []storage.Value
	p.Derived.Each(func(row []storage.Value) bool {
		out = append(out, row[0])
		return true
	})
	return out
}

func TestConstantsInRuleBody(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl from7(y:number)
e(7, 1). e(7, 2). e(8, 3).
from7(y) :- e(7, y).
`
	cat, _ := runSrc(t, src, true, false)
	p, _ := cat.PredByName("from7")
	if p.Derived.Len() != 2 {
		t.Fatalf("from7 = %v", p.Derived.Snapshot())
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl selfloop(x:number)
e(1, 1). e(1, 2). e(3, 3).
selfloop(x) :- e(x, x).
`
	cat, _ := runSrc(t, src, false, false)
	p, _ := cat.PredByName("selfloop")
	if p.Derived.Len() != 2 || !p.Derived.Contains([]storage.Value{1}) || !p.Derived.Contains([]storage.Value{3}) {
		t.Fatalf("selfloop = %v", p.Derived.Snapshot())
	}
}

// Property: the atom order of rule bodies never changes results (join
// reordering soundness — the foundation of the paper's optimization).
func TestAtomOrderInvarianceProperty(t *testing.T) {
	base := [][2]int8{}
	f := func(edges [][2]int8, seed int64) bool {
		if len(edges) == 0 {
			edges = base
		}
		src1 := ".decl e(x:number, y:number)\n.decl p(x:number, y:number)\n"
		for _, e := range edges {
			src1 += "e(" + itoa(int(uint8(e[0]))%16) + "," + itoa(int(uint8(e[1]))%16) + ").\n"
		}
		// Two orders of the same 3-atom recursive body.
		a := src1 + "p(x,y) :- e(x,y).\np(x,w) :- p(x,y), p(y,z), e(z,w).\n"
		b := src1 + "p(x,y) :- e(x,y).\np(x,w) :- e(z,w), p(y,z), p(x,y).\n"
		catA := storage.NewCatalog()
		resA, err := parser.Parse(a, catA)
		if err != nil {
			return false
		}
		rootA, err := ir.Lower(resA.Program)
		if err != nil {
			return false
		}
		if err := New(catA, nil).Run(rootA); err != nil {
			return false
		}
		catB := storage.NewCatalog()
		resB, err := parser.Parse(b, catB)
		if err != nil {
			return false
		}
		rootB, err := ir.Lower(resB.Program)
		if err != nil {
			return false
		}
		if err := New(catB, nil).Run(rootB); err != nil {
			return false
		}
		pa, _ := catA.PredByName("p")
		pb, _ := catB.PredByName("p")
		if pa.Derived.Len() != pb.Derived.Len() {
			return false
		}
		same := true
		pa.Derived.Each(func(row []storage.Value) bool {
			if !pb.Derived.Contains(row) {
				same = false
				return false
			}
			return true
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregationCount(t *testing.T) {
	cat := storage.NewCatalog()
	edge := cat.Declare("edge", 2)
	deg := cat.Declare("deg", 2)
	p := ast.NewProgram(cat)
	p.MustAddRule(&ast.Rule{
		Head:    ast.Rel(deg, ast.V(0), ast.V(2)),
		Body:    []ast.Atom{ast.Rel(edge, ast.V(0), ast.V(1))},
		Agg:     ast.AggSpec{Kind: ast.AggCount, HeadPos: 1},
		NumVars: 3,
	})
	for _, e := range [][2]storage.Value{{1, 2}, {1, 3}, {1, 4}, {2, 3}} {
		cat.Pred(edge).AddFact([]storage.Value{e[0], e[1]})
	}
	root, err := ir.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(cat, nil).Run(root); err != nil {
		t.Fatal(err)
	}
	d := cat.Pred(deg).Derived
	if !d.Contains([]storage.Value{1, 3}) || !d.Contains([]storage.Value{2, 1}) {
		t.Fatalf("deg = %v", d.Snapshot())
	}
}

func TestAggregationSumMinMax(t *testing.T) {
	cat := storage.NewCatalog()
	sale := cat.Declare("sale", 2)
	agg := cat.Declare("agg", 2)
	for _, e := range [][2]storage.Value{{1, 10}, {1, 20}, {2, 5}} {
		cat.Pred(sale).AddFact([]storage.Value{e[0], e[1]})
	}
	for _, tc := range []struct {
		kind ast.AggKind
		g1   storage.Value
	}{
		{ast.AggSum, 30}, {ast.AggMin, 10}, {ast.AggMax, 20},
	} {
		cat.Pred(agg).Reset()
		p := ast.NewProgram(cat)
		p.MustAddRule(&ast.Rule{
			Head:    ast.Rel(agg, ast.V(0), ast.V(2)),
			Body:    []ast.Atom{ast.Rel(sale, ast.V(0), ast.V(1))},
			Agg:     ast.AggSpec{Kind: tc.kind, HeadPos: 1, OverVar: 1},
			NumVars: 3,
		})
		root, err := ir.Lower(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := New(cat, nil).Run(root); err != nil {
			t.Fatal(err)
		}
		if !cat.Pred(agg).Derived.Contains([]storage.Value{1, tc.g1}) {
			t.Fatalf("%v: agg = %v", tc.kind, cat.Pred(agg).Derived.Snapshot())
		}
	}
}

func TestControllerThunkOverridesInterpretation(t *testing.T) {
	cat, _ := runSrc(t, tcChain, false, false) // warm catalog for shape only
	_ = cat
	cat2 := storage.NewCatalog()
	res, err := parser.Parse(tcChain, cat2)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &countingController{}
	in := New(cat2, ctrl)
	if err := in.Run(root); err != nil {
		t.Fatal(err)
	}
	if ctrl.enters == 0 {
		t.Fatal("controller never consulted at safe points")
	}
	if in.Stats.Compiled != 0 {
		t.Fatal("nil thunks must not count as compiled executions")
	}
}

type countingController struct{ enters int }

func (c *countingController) Enter(op ir.Op, in *Interp) func() error {
	c.enters++
	return nil
}

// failingController lets the n-th subquery run — staging what it derives —
// and then fails it, the way a cancellation or a plan error stops a run
// mid-iteration.
type failingController struct{ n int }

func (c *failingController) Enter(op ir.Op, in *Interp) func() error {
	if _, ok := op.(*ir.SPJOp); !ok {
		return nil
	}
	if c.n--; c.n != 0 {
		return nil
	}
	return func() error {
		if err := in.Interpret(op); err != nil {
			return err
		}
		return ErrCancelled
	}
}

// TestRunErrorDropsStaged: a run that stops mid-iteration leaves Derived
// holding exactly its published rows, so the rewind that precedes the next
// run works and that run reaches the full fixpoint.
func TestRunErrorDropsStaged(t *testing.T) {
	cat := storage.NewCatalog()
	res, err := parser.Parse(tcChain, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := cat.PredByName("tc")
	if err := New(cat, &failingController{n: 3}).Run(root); err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if tc.Derived.Len() == 0 || tc.Derived.Len() == 6 {
		t.Fatalf("the run stopped with |tc| = %d; the test wants it stopped mid-fixpoint", tc.Derived.Len())
	}
	tc.Derived.TruncateTo(0)
	for _, pd := range cat.Preds() {
		pd.DeltaKnown.Clear()
		pd.DeltaNew.Clear()
	}
	if err := New(cat, nil).Run(root); err != nil {
		t.Fatal(err)
	}
	if got := len(derived(t, cat, "tc")); got != 6 {
		t.Fatalf("|tc| = %d after the rerun, want 6", got)
	}
}

func TestPlanErrorOnIllegalOrder(t *testing.T) {
	cat := storage.NewCatalog()
	n := cat.Declare("n", 1)
	out := cat.Declare("out", 1)
	spj := &ir.SPJOp{
		Sink:    out,
		Head:    []ir.ProjElem{{Var: 1}},
		NumVars: 2,
		Atoms: []ir.Atom{
			{Kind: ast.AtomBuiltin, Builtin: ast.BAdd, Terms: []ast.Term{ast.V(0), ast.C(1), ast.V(1)}},
			{Kind: ast.AtomRelation, Pred: n, Terms: []ast.Term{ast.V(0)}},
		},
		DeltaIdx: -1,
	}
	if _, err := BuildPlan(spj, cat); err == nil {
		t.Fatal("builtin before its binding atom must fail plan building")
	}
}

func TestEmptyBodyRule(t *testing.T) {
	// p(1,2) :- .  (constant head, empty body) behaves like a fact.
	cat := storage.NewCatalog()
	p := cat.Declare("p", 2)
	prog := ast.NewProgram(cat)
	prog.MustAddRule(&ast.Rule{Head: ast.Rel(p, ast.C(1), ast.C(2)), NumVars: 0})
	root, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(cat, nil).Run(root); err != nil {
		t.Fatal(err)
	}
	if !cat.Pred(p).Derived.Contains([]storage.Value{1, 2}) {
		t.Fatal("empty-body rule did not derive its head")
	}
}

// yieldingController yields on the yieldAt-th poll of the first subquery
// that polls it, then either declines the hand-over (the interpreter re-runs
// the subquery) or takes over with a unit that evaluates it whole.
type yieldingController struct {
	yieldAt  int
	takeOver bool
	polls    int
	yielded  bool
}

func (c *yieldingController) ShouldYield(op ir.Op, in *Interp) bool {
	c.polls++
	if c.polls == c.yieldAt {
		c.yielded = true
		return true
	}
	return false
}

func (c *yieldingController) Enter(op ir.Op, in *Interp) func() error {
	spj, ok := op.(*ir.SPJOp)
	if !ok || !c.yielded || !c.takeOver {
		return nil
	}
	return func() error { return New(in.Cat, nil).execSPJ(spj) }
}

// TestYieldedAggregateEmitsNoPartialGroups: an aggregate subquery abandoned
// through Yielder after it has scanned part of its body must not insert the
// groups it has so far — deg(1,2) beside the true deg(1,3) — whether the
// controller then takes over or declines.
func TestYieldedAggregateEmitsNoPartialGroups(t *testing.T) {
	for _, takeOver := range []bool{false, true} {
		for yieldAt := 1; yieldAt <= 4; yieldAt++ {
			cat := storage.NewCatalog()
			edge := cat.Declare("edge", 2)
			deg := cat.Declare("deg", 2)
			p := ast.NewProgram(cat)
			p.MustAddRule(&ast.Rule{
				Head:    ast.Rel(deg, ast.V(0), ast.V(2)),
				Body:    []ast.Atom{ast.Rel(edge, ast.V(0), ast.V(1))},
				Agg:     ast.AggSpec{Kind: ast.AggCount, HeadPos: 1},
				NumVars: 3,
			})
			for _, e := range [][2]storage.Value{{1, 2}, {1, 3}, {1, 4}, {2, 3}} {
				cat.Pred(edge).AddFact([]storage.Value{e[0], e[1]})
			}
			root, err := ir.Lower(p)
			if err != nil {
				t.Fatal(err)
			}
			ctrl := &yieldingController{yieldAt: yieldAt, takeOver: takeOver}
			in := New(cat, ctrl)
			if err := in.Run(root); err != nil {
				t.Fatal(err)
			}
			if !ctrl.yielded {
				t.Fatalf("yieldAt=%d: the subquery never polled that often", yieldAt)
			}
			d := cat.Pred(deg).Derived
			if d.Len() != 2 || !d.Contains([]storage.Value{1, 3}) || !d.Contains([]storage.Value{2, 1}) {
				t.Fatalf("takeOver=%v yieldAt=%d: deg = %v, want [[1 3] [2 1]]", takeOver, yieldAt, d.Snapshot())
			}
		}
	}
}
