package interp

import (
	"math/rand"
	"testing"

	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

// runSrcExec mirrors runSrc with an executor and parallelism choice.
func runSrcExec(t *testing.T, src string, ex Executor, parallel bool) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for pid, cols := range ir.JoinKeyColumns(res.Program) {
		cat.Pred(pid).BuildIndexes(cols)
	}
	in := New(cat, nil)
	in.Executor = ex
	in.Parallel = parallel
	if err := in.Run(root); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cat
}

func catalogsEqual(t *testing.T, a, b *storage.Catalog) {
	t.Helper()
	for _, p := range a.Preds() {
		bp, ok := b.PredByName(p.Name)
		if !ok {
			t.Fatalf("predicate %s missing", p.Name)
		}
		if p.Derived.Len() != bp.Derived.Len() {
			t.Fatalf("pred %s: %d vs %d tuples", p.Name, p.Derived.Len(), bp.Derived.Len())
		}
		p.Derived.Each(func(row []storage.Value) bool {
			if !bp.Derived.Contains(row) {
				t.Fatalf("pred %s: tuple %v missing", p.Name, row)
			}
			return true
		})
	}
}

func TestPullEqualsPush(t *testing.T) {
	for _, src := range []string{tcChain, primesSrc, fibSrc} {
		push := runSrcExec(t, src, ExecPush, false)
		pull := runSrcExec(t, src, ExecPull, false)
		catalogsEqual(t, push, pull)
	}
}

func TestPullEqualsPushRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(8)
		src := ".decl e(x:number, y:number)\n.decl p(x:number, y:number)\n"
		for i := 0; i < n*3; i++ {
			src += "e(" + itoa(rng.Intn(n)) + "," + itoa(rng.Intn(n)) + ").\n"
		}
		src += "p(x,y) :- e(x,y).\np(x,w) :- p(x,y), p(y,z), e(z,w).\n"
		catalogsEqual(t, runSrcExec(t, src, ExecPush, false), runSrcExec(t, src, ExecPull, false))
	}
}

func TestParallelUnionsEqualSequential(t *testing.T) {
	// Mutual recursion gives multiple UnionAllOps per iteration to fan out.
	src := `
.decl n(x:number)
.decl even(x:number)
.decl odd(x:number)
.decl both(x:number, y:number)
n(40).
even(0).
odd(y) :- even(x), y = x + 1, n(m), y <= m.
even(y) :- odd(x), y = x + 1, n(m), y <= m.
both(x, y) :- even(x), odd(y), y = x + 1.
`
	seq := runSrcExec(t, src, ExecPush, false)
	par := runSrcExec(t, src, ExecPush, true)
	catalogsEqual(t, seq, par)

	parPull := runSrcExec(t, src, ExecPull, true)
	catalogsEqual(t, seq, parPull)
}

func TestParallelCSPAShape(t *testing.T) {
	src := `
.decl Assign(a:number, b:number)
.decl VaFlow(a:number, b:number)
.decl VAlias(a:number, b:number)
VaFlow(x, y) :- Assign(x, y).
VaFlow(x, y) :- VaFlow(x, z), VaFlow(z, y).
VAlias(x, y) :- VaFlow(z, x), VaFlow(z, y).
`
	full := src
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		full += "Assign(" + itoa(rng.Intn(20)) + "," + itoa(rng.Intn(20)) + ").\n"
	}
	catalogsEqual(t, runSrcExec(t, full, ExecPush, false), runSrcExec(t, full, ExecPush, true))
}

func TestPullExecutorEmptyBody(t *testing.T) {
	cat := storage.NewCatalog()
	out := cat.Declare("out", 1)
	plan := &Plan{
		Head:    []ir.ProjElem{{IsConst: true, Const: 7}},
		Sink:    out,
		NumVars: 0,
	}
	if n := RunPlanPull(plan, cat); n != 1 {
		t.Fatalf("derived = %d, want 1", n)
	}
	if pd := cat.Pred(out); pd.DeltaNew.Len() != 1 || pd.DeltaNew.Row(0)[0] != 7 || !pd.Derived.Contains([]storage.Value{7}) {
		t.Fatal("constant head not emitted")
	}
}

func TestExecutorString(t *testing.T) {
	if ExecPush.String() != "push" || ExecPull.String() != "pull" {
		t.Fatal("executor names wrong")
	}
}

func TestPullCancellation(t *testing.T) {
	src := tcChain
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	in := New(cat, nil)
	in.Executor = ExecPull
	in.Cancel()
	if err := in.Run(root); err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}
