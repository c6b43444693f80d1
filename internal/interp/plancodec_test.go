package interp

import (
	"reflect"
	"testing"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/storage"
)

// fullPlan exercises every symbolic field the codec carries, including the
// negative sentinel Out = -1 (builtin-as-filter) and an aggregation spec.
func fullPlan() *Plan {
	return &Plan{
		Steps: []Step{
			{
				Kind: StepProbe, Pred: 3, Src: ir.SrcDelta,
				ProbeCol: 1, ProbeKey: TmplElem{Var: 2},
				Checks: []ColCheck{
					{Col: 0, Mode: CheckConst, Const: 41},
					{Col: 2, Mode: CheckVar, Var: 1},
					{Col: 3, Mode: CheckSameRow, Other: 0},
				},
				Binds: []ColBind{{Col: 0, Var: 0}, {Col: 2, Var: 1}},
			},
			{
				Kind: StepProbeN, Pred: 5, Src: ir.SrcOld,
				ProbeCols: []int{0, 2},
				ProbeKeys: []TmplElem{{Var: 0}, {IsConst: true, Const: 7}},
				Binds:     []ColBind{{Col: 1, Var: 3}},
			},
			{
				Kind: StepNegCheck, Pred: 1, Src: ir.SrcDerived,
				Tmpl: []TmplElem{{Var: 0}, {IsConst: true, Const: -9}},
			},
			{
				Kind: StepBuiltin, Builtin: ast.BLt,
				Args: []TmplElem{{Var: 0}, {IsConst: true, Const: 100}},
				Out:  -1, OutVar: 0,
			},
		},
		Head:    []ir.ProjElem{{Var: 3}, {IsConst: true, Const: 12}},
		Sink:    9,
		NumVars: 4,
		Agg:     ast.AggSpec{Kind: ast.AggMin, HeadPos: 1, OverVar: 3},
		EstRows: 123.5,
	}
}

func TestPlanCodecRoundTrip(t *testing.T) {
	want := fullPlan()
	b := AppendPlan(nil, want)
	got, rest, err := DecodePlan(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestPlanCodecChained pins the rest-returning contract the bytecode
// program codec relies on: two plans appended back to back decode in
// sequence from the shared buffer.
func TestPlanCodecChained(t *testing.T) {
	p1 := fullPlan()
	p2 := &Plan{Sink: 2, NumVars: 1, Head: []ir.ProjElem{{Var: 0}}}
	b := AppendPlan(AppendPlan(nil, p1), p2)
	got1, rest, err := DecodePlan(b)
	if err != nil {
		t.Fatal(err)
	}
	got2, rest, err := DecodePlan(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(p1, got1) || !reflect.DeepEqual(p2, got2) {
		t.Fatal("chained round trip diverged")
	}
}

// TestPlanCodecTruncation: every proper prefix must decode to an error or a
// structurally valid plan — never panic, never fabricate trailing state from
// a short buffer silently succeeding at full length.
func TestPlanCodecTruncation(t *testing.T) {
	b := AppendPlan(nil, fullPlan())
	for n := 0; n < len(b); n++ {
		if _, _, err := DecodePlan(b[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(b))
		}
	}
}

// TestPlanCodecRejectsUnknownSource: a step whose source byte names no
// ir.Source is a corrupt entry — the persistent cache counts it and drops
// the file — not a step that silently reads Derived.
func TestPlanCodecRejectsUnknownSource(t *testing.T) {
	b := AppendPlan(nil, fullPlan())
	p := fullPlan()
	p.Steps[0].Src = ir.SrcOld
	at := -1 // the first step's source byte: the one byte the two encodings differ in
	for i, c := range AppendPlan(nil, p) {
		if c != b[i] {
			at = i
			break
		}
	}
	b[at] = 0x7f
	if _, _, err := DecodePlan(b); err == nil {
		t.Fatal("a plan reading source 0x7f decoded without error")
	}
}

// revShapeSPJ builds sink(x,y) :- delta(x,y), e(y,x): the second atom
// carries equality checks on both columns, so different index registrations
// select different probe columns.
func revShapeSPJ(sink, delta, e storage.PredID) *ir.SPJOp {
	return &ir.SPJOp{
		Sink:    sink,
		Head:    []ir.ProjElem{{Var: 0}, {Var: 1}},
		NumVars: 2,
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: delta, Src: ir.SrcDelta, Terms: []ast.Term{ast.V(0), ast.V(1)}},
			{Kind: ast.AtomRelation, Pred: e, Src: ir.SrcDerived, Terms: []ast.Term{ast.V(1), ast.V(0)}},
		},
		DeltaIdx: 0,
	}
}

// revCatalog declares revShapeSPJ's three predicates, indexing e's Derived
// on the given columns.
func revCatalog(cols ...int) (*storage.Catalog, *ir.SPJOp) {
	cat := storage.NewCatalog()
	sink, d, e := cat.Declare("s", 2), cat.Declare("d", 2), cat.Declare("e", 2)
	for _, c := range cols {
		cat.Pred(e).BuildIndexes([]int{c})
	}
	return cat, revShapeSPJ(sink, d, e)
}

// TestRevalidatePlanUpgradesScanToProbe: a plan built where e has no index
// scans it; revalidated against a catalog that indexes e's column 0, the
// step becomes a probe on it and the consumed check moves into the key.
func TestRevalidatePlanUpgradesScanToProbe(t *testing.T) {
	cold, spj := revCatalog()
	p, err := BuildPlan(spj, cold)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Steps[1]; st.Kind != StepScan || len(st.Checks) != 2 {
		t.Fatalf("built step = %+v, want a scan with two checks", st)
	}
	warm, _ := revCatalog(0)
	RevalidatePlan(p, warm)
	if st := p.Steps[1]; st.Kind != StepProbe || st.ProbeCol != 0 || len(st.Checks) != 1 {
		t.Fatalf("revalidated step = %+v, want a probe on column 0 with one check left", st)
	}
}

// TestRevalidatePlanReselectsProbe: a probe whose index the catalog does not
// register demotes, its key check restored, and re-selects the index the
// catalog does register; with none registered it stays a scan with both
// checks.
func TestRevalidatePlanReselectsProbe(t *testing.T) {
	built, spj := revCatalog(0)
	p, err := BuildPlan(spj, built)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Steps[1]; st.Kind != StepProbe || st.ProbeCol != 0 {
		t.Fatalf("built step = %+v, want a probe on column 0", st)
	}
	other, _ := revCatalog(1)
	RevalidatePlan(p, other)
	if st := p.Steps[1]; st.Kind != StepProbe || st.ProbeCol != 1 || len(st.Checks) != 1 {
		t.Fatalf("revalidated step = %+v, want a probe re-selected on column 1", st)
	}
	none, _ := revCatalog()
	RevalidatePlan(p, none)
	if st := p.Steps[1]; st.Kind != StepScan || len(st.Checks) != 2 {
		t.Fatalf("revalidated step = %+v, want a scan with both checks restored", st)
	}
}
