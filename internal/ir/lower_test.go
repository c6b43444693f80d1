package ir

import (
	"strings"
	"testing"

	"carac/internal/ast"
	"carac/internal/storage"
)

// buildTC returns the transitive-closure program:
// tc(x,y) :- edge(x,y).  tc(x,y) :- tc(x,z), edge(z,y).
func buildTC(t *testing.T) (*ast.Program, storage.PredID, storage.PredID) {
	t.Helper()
	cat := storage.NewCatalog()
	edge := cat.Declare("edge", 2)
	tc := cat.Declare("tc", 2)
	p := ast.NewProgram(cat)
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(tc, ast.V(0), ast.V(1)),
		Body: []ast.Atom{ast.Rel(edge, ast.V(0), ast.V(1))}, NumVars: 2,
	})
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(tc, ast.V(0), ast.V(1)),
		Body: []ast.Atom{ast.Rel(tc, ast.V(0), ast.V(2)), ast.Rel(edge, ast.V(2), ast.V(1))}, NumVars: 3,
	})
	return p, edge, tc
}

func TestLowerTCShape(t *testing.T) {
	p, _, tc := buildTC(t)
	root, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := Count(root)
	if counts[KProgram] != 1 || counts[KScan] != 1 || counts[KDoWhile] != 1 {
		t.Fatalf("tree shape wrong: %v", counts)
	}
	// One prologue UnionAll (rule 0) + one loop UnionAll (rule 1).
	if counts[KUnionAll] != 2 || counts[KUnionRule] != 2 {
		t.Fatalf("union counts wrong: %v", counts)
	}
	// Prologue subquery naive, loop rule has exactly one delta subquery
	// (only the tc atom is recursive).
	if counts[KSPJ] != 2 {
		t.Fatalf("SPJ count = %d, want 2", counts[KSPJ])
	}
	var spjs []*SPJOp
	Walk(root, func(o Op) {
		if s, ok := o.(*SPJOp); ok {
			spjs = append(spjs, s)
		}
	})
	if spjs[0].DeltaIdx != -1 {
		t.Fatalf("prologue subquery has DeltaIdx %d, want -1", spjs[0].DeltaIdx)
	}
	if spjs[1].DeltaIdx != 0 || spjs[1].Atoms[0].Src != SrcDelta {
		t.Fatalf("loop subquery delta wrong: idx=%d src=%v", spjs[1].DeltaIdx, spjs[1].Atoms[0].Src)
	}
	if spjs[1].Sink != tc {
		t.Fatalf("sink = %d, want tc", spjs[1].Sink)
	}
}

func TestLowerDeltaSubqueryPerRecursiveAtom(t *testing.T) {
	// head :- r(x,y), r(y,z), e(z,w): two recursive occurrences of r give
	// two delta subqueries, the second reading Old at the first r.
	cat := storage.NewCatalog()
	e := cat.Declare("e", 2)
	r := cat.Declare("r", 2)
	p := ast.NewProgram(cat)
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(r, ast.V(0), ast.V(1)),
		Body: []ast.Atom{ast.Rel(e, ast.V(0), ast.V(1))}, NumVars: 2,
	})
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(r, ast.V(0), ast.V(3)),
		Body: []ast.Atom{
			ast.Rel(r, ast.V(0), ast.V(1)),
			ast.Rel(r, ast.V(1), ast.V(2)),
			ast.Rel(e, ast.V(2), ast.V(3)),
		}, NumVars: 4,
	})
	root, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	var loopRule *UnionRuleOp
	Walk(root, func(o Op) {
		if u, ok := o.(*UnionRuleOp); ok && u.RuleIdx == 1 {
			loopRule = u
		}
	})
	if loopRule == nil || len(loopRule.Subqueries) != 2 {
		t.Fatalf("recursive rule should produce 2 delta subqueries, got %+v", loopRule)
	}
	want := [][]Source{{SrcDelta, SrcDerived, SrcDerived}, {SrcOld, SrcDelta, SrcDerived}}
	for i, spj := range loopRule.Subqueries {
		if spj.DeltaIdx != i {
			t.Fatalf("subquery %d delta idx = %d", i, spj.DeltaIdx)
		}
		for j, a := range spj.Atoms {
			if a.Src != want[i][j] {
				t.Fatalf("subquery %d atom %d src = %v, want %v", i, j, a.Src, want[i][j])
			}
		}
	}
	if d := Dump(root, cat); !strings.Contains(d, "SPJ -> r :- r⋆∖δ, rδ, e⋆") {
		t.Fatalf("Dump does not print the Old atom:\n%s", d)
	}
}

func TestLowerStratifiedNegationSequence(t *testing.T) {
	cat := storage.NewCatalog()
	num := cat.Declare("num", 1)
	comp := cat.Declare("composite", 1)
	prime := cat.Declare("prime", 1)
	p := ast.NewProgram(cat)
	p.MustAddRule(&ast.Rule{
		Head:    ast.Rel(comp, ast.V(2)),
		Body:    []ast.Atom{ast.Rel(num, ast.V(0)), ast.Rel(num, ast.V(1)), ast.Bi(ast.BMul, ast.V(0), ast.V(1), ast.V(2))},
		NumVars: 3,
	})
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(prime, ast.V(0)),
		Body: []ast.Atom{ast.Rel(num, ast.V(0)), ast.Neg(comp, ast.V(0))}, NumVars: 1,
	})
	root, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	// Two strata, no loops (nothing recursive): Scan, UnionAll, SwapClear ×2.
	counts := Count(root)
	if counts[KDoWhile] != 0 {
		t.Fatalf("non-recursive program should have no DoWhile: %v", counts)
	}
	if counts[KScan] != 2 || counts[KSwapClear] != 2 {
		t.Fatalf("per-stratum ops wrong: %v", counts)
	}
	// composite's stratum must come before prime's.
	var order []storage.PredID
	Walk(root, func(o Op) {
		if u, ok := o.(*UnionAllOp); ok {
			order = append(order, u.Pred)
		}
	})
	if len(order) != 2 || order[0] != comp || order[1] != prime {
		t.Fatalf("stratum order = %v", order)
	}
}

func TestLowerNaiveShape(t *testing.T) {
	p, _, _ := buildTC(t)
	root, err := LowerNaive(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := Count(root)
	if counts[KDoWhile] != 1 {
		t.Fatalf("naive lowering should still loop: %v", counts)
	}
	// Both rules inside the loop, each a single naive subquery.
	var spjs []*SPJOp
	Walk(root, func(o Op) {
		if s, ok := o.(*SPJOp); ok {
			spjs = append(spjs, s)
		}
	})
	if len(spjs) != 2 {
		t.Fatalf("SPJs = %d", len(spjs))
	}
	for _, s := range spjs {
		if s.DeltaIdx != -1 || s.DeltaAtom() != -1 {
			t.Fatal("naive subqueries must not read deltas")
		}
	}
}

func TestJoinKeyColumns(t *testing.T) {
	p, edge, tc := buildTC(t)
	cols := JoinKeyColumns(p)
	// tc(x,z), edge(z,y): z is shared -> tc col 1 and edge col 0.
	if got := cols[tc]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("tc join cols = %v, want [1]", got)
	}
	if got := cols[edge]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("edge join cols = %v, want [0]", got)
	}
}

func TestJoinKeyColumnsConstants(t *testing.T) {
	cat := storage.NewCatalog()
	e := cat.Declare("e", 2)
	out := cat.Declare("out", 1)
	p := ast.NewProgram(cat)
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(out, ast.V(0)),
		Body: []ast.Atom{ast.Rel(e, ast.C(7), ast.V(0))}, NumVars: 1,
	})
	cols := JoinKeyColumns(p)
	if got := cols[e]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("constant filter column not detected: %v", got)
	}
}

func TestDumpRendersSources(t *testing.T) {
	p, _, _ := buildTC(t)
	root, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	s := Dump(root, p.Catalog)
	if !strings.Contains(s, "tcδ") || !strings.Contains(s, "edge⋆") {
		t.Fatalf("Dump missing source annotations:\n%s", s)
	}
	if !strings.Contains(s, "DoWhileOp") || !strings.Contains(s, "SwapClearOp") {
		t.Fatalf("Dump missing ops:\n%s", s)
	}
}

// TestLowerWarmReadsOld pins the warm shape of TC in Dump's notation: one
// variant per positive relational atom, the atoms before its δ atom reading
// Old and the atoms after it Full.
func TestLowerWarmReadsOld(t *testing.T) {
	p, _, _ := buildTC(t)
	root, err := LowerWarm(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `ProgramOp
  ScanOp
  SwapClearOp
  DoWhileOp
    UnionOp* into tc
      UnionOp
        SPJ -> tc :- edgeδ
      UnionOp
        SPJ -> tc :- tcδ, edge⋆
        SPJ -> tc :- tc⋆∖δ, edgeδ
    SwapClearOp
`
	if got := Dump(root, p.Catalog); got != want {
		t.Fatalf("LowerWarm(TC) =\n%s\nwant\n%s", got, want)
	}
}
