package lambda

import (
	"reflect"
	"testing"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

func lowerSrc(t *testing.T, src string) (*storage.Catalog, *ir.ProgramOp) {
	t.Helper()
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	return cat, root
}

const tcSrc = `
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
edge(1,2). edge(2,3). edge(3,4).
tc(x,y) :- edge(x,y).
tc(x,y) :- tc(x,z), edge(z,y).
`

func TestLambdaFullCompile(t *testing.T) {
	cat, root := lowerSrc(t, tcSrc)
	unit, err := Compiler{}.Compile(root, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(cat, nil)
	if err := unit(in); err != nil {
		t.Fatal(err)
	}
	tc, _ := cat.PredByName("tc")
	if tc.Derived.Len() != 6 {
		t.Fatalf("|tc| = %d, want 6", tc.Derived.Len())
	}
	if in.Stats.SPJRuns == 0 || in.Stats.Derivations != 6 {
		t.Fatalf("stats wrong: %+v", in.Stats)
	}
}

func TestLambdaSnippetUsesInterpreterForChildren(t *testing.T) {
	cat, root := lowerSrc(t, tcSrc)
	var dw *ir.DoWhileOp
	ir.Walk(root, func(o ir.Op) {
		if d, ok := o.(*ir.DoWhileOp); ok {
			dw = d
		}
	})
	unit, err := Compiler{}.Compile(dw, cat, true)
	if err != nil {
		t.Fatal(err)
	}
	// Run prologue interpreted, then the snippet-compiled loop.
	pre := interp.New(cat, nil)
	for _, op := range root.Body {
		if op == ir.Op(dw) {
			break
		}
		if err := pre.Run(op); err != nil {
			t.Fatal(err)
		}
	}
	probe := &probeCtrl{}
	in := interp.New(cat, probe)
	if err := unit(in); err != nil {
		t.Fatal(err)
	}
	if probe.seen == 0 {
		t.Fatal("snippet children did not reach the interpreter")
	}
	tc, _ := cat.PredByName("tc")
	if tc.Derived.Len() != 6 {
		t.Fatalf("|tc| = %d, want 6", tc.Derived.Len())
	}
}

type probeCtrl struct{ seen int }

func (p *probeCtrl) Enter(op ir.Op, in *interp.Interp) func() error {
	p.seen++
	return nil
}

func TestLambdaIndexedProbeChain(t *testing.T) {
	cat, root := lowerSrc(t, tcSrc)
	edge, _ := cat.PredByName("edge")
	tc, _ := cat.PredByName("tc")
	edge.BuildIndexes([]int{0})
	tc.BuildIndexes([]int{1})
	unit, err := Compiler{}.Compile(root, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := unit(interp.New(cat, nil)); err != nil {
		t.Fatal(err)
	}
	if tc.Derived.Len() != 6 {
		t.Fatalf("|tc| = %d, want 6", tc.Derived.Len())
	}
}

func TestLambdaFrozenOrderSurvivesCatalogChanges(t *testing.T) {
	// A compiled unit re-executed after facts change must still be correct
	// (plans resolve relations at run time).
	cat, root := lowerSrc(t, tcSrc)
	unit, err := Compiler{}.Compile(root, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := unit(interp.New(cat, nil)); err != nil {
		t.Fatal(err)
	}
	cat.ResetFacts()
	edge, _ := cat.PredByName("edge")
	for i := 0; i < 10; i++ {
		edge.AddFact([]storage.Value{storage.Value(i), storage.Value(i + 1)})
	}
	if err := unit(interp.New(cat, nil)); err != nil {
		t.Fatal(err)
	}
	tc, _ := cat.PredByName("tc")
	if tc.Derived.Len() != 55 {
		t.Fatalf("|tc| = %d, want 55", tc.Derived.Len())
	}
}

func TestLambdaPrimes(t *testing.T) {
	src := `
.decl num(n:number)
.decl composite(n:number)
.decl prime(n:number)
num(2). num(3). num(4). num(5). num(6). num(7). num(8). num(9). num(10). num(11). num(12).
composite(c) :- num(a), num(b), c = a * b, num(c).
prime(p) :- num(p), !composite(p).
`
	cat, root := lowerSrc(t, src)
	unit, err := Compiler{}.Compile(root, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := unit(interp.New(cat, nil)); err != nil {
		t.Fatal(err)
	}
	p, _ := cat.PredByName("prime")
	want := []storage.Value{2, 3, 5, 7, 11}
	if p.Derived.Len() != len(want) {
		t.Fatalf("primes = %v", p.Derived.Snapshot())
	}
}

// TestCompilePlanEnsuresDeltaIndexes: a delta links its rows into an index
// only on demand, so a unit — plain or aggregating — ensures the indexes its
// plan probes on δ before it starts. A lowered program never aggregates over
// a delta (aggregation is stratified), so the aggregating unit is handed such
// a plan directly.
func TestCompilePlanEnsuresDeltaIndexes(t *testing.T) {
	for _, agg := range []ast.AggKind{ast.AggNone, ast.AggCount} {
		cat := storage.NewCatalog()
		e := cat.Pred(cat.Declare("e", 2))
		r := cat.Pred(cat.Declare("r", 2))
		out := cat.Pred(cat.Declare("out", 2))
		r.BuildIndexes([]int{0})
		e.AddFact([]storage.Value{1, 2})
		e.AddFact([]storage.Value{2, 3})
		for _, row := range [][]storage.Value{{2, 5}, {2, 6}, {3, 7}} {
			r.Emit(row)
		}
		r.SwapClear() // δr holds the three rows, linked into no index
		x, y, z := ast.VarID(0), ast.VarID(1), ast.VarID(2)
		spj := &ir.SPJOp{Sink: out.ID, NumVars: 3, DeltaIdx: 1,
			Atoms: []ir.Atom{
				{Kind: ast.AtomRelation, Pred: e.ID, Terms: []ast.Term{ast.V(x), ast.V(y)}},
				{Kind: ast.AtomRelation, Pred: r.ID, Src: ir.SrcDelta, Terms: []ast.Term{ast.V(y), ast.V(z)}},
			},
			Head: []ir.ProjElem{{Var: x}, {Var: z}},
			Agg:  ast.AggSpec{Kind: agg, HeadPos: 1},
		}
		plan, err := interp.BuildPlan(spj, cat)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Steps[1].Kind != interp.StepProbe {
			t.Fatalf("%v: the plan scans δr instead of probing it", agg)
		}
		if err := CompilePlan(plan)(interp.New(cat, nil)); err != nil {
			t.Fatal(err)
		}
		out.SwapClear()
		want := [][]storage.Value{{1, 5}, {1, 6}, {2, 7}}
		if agg == ast.AggCount {
			want = [][]storage.Value{{1, 2}, {2, 1}}
		}
		if got := out.Derived.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: out = %v, want %v", agg, got, want)
		}
	}
}

// TestUnitsTakeTheInterpretersFrame: a unit's frame comes from the invoking
// interpreter — one, grown to the largest unit it ran — so once an
// interpreter has run a unit, invoking it or the task unit of the same rule
// again allocates nothing (every emit below is a duplicate).
func TestUnitsTakeTheInterpretersFrame(t *testing.T) {
	cat, root := lowerSrc(t, tcSrc)
	all, err := Compiler{}.Compile(root, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(cat, nil)
	if err := all(in); err != nil {
		t.Fatal(err)
	}
	var base *ir.UnionRuleOp
	ir.Walk(root, func(o ir.Op) {
		if r, ok := o.(*ir.UnionRuleOp); ok && base == nil && r.Subqueries[0].DeltaAtom() < 0 {
			base = r
		}
	})
	unit, err := Compiler{}.Compile(base, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	task, err := Compiler{}.CompileShard(base, cat)
	if err != nil {
		t.Fatal(err)
	}
	f := in.Frame
	if a := testing.AllocsPerRun(20, func() {
		if err := unit(in); err != nil {
			t.Fatal(err)
		}
		if err := task(in, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a unit invocation allocates %.1f times, want 0", a)
	}
	if f == nil || in.Frame != f {
		t.Error("the units did not run in the interpreter's one frame")
	}
	if in.Stats.Matches == 0 || in.Stats.Derivations != 6 {
		t.Fatalf("stats wrong: %+v", in.Stats)
	}
}
