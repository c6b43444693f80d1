package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"carac/internal/ast"
	"carac/internal/storage"
)

// renderUses prints uses as "pred+source[cols]", sorted, so a lowering's
// uses compare as one string.
func renderUses(cat *storage.Catalog, uses []IndexUse) string {
	var out []string
	for _, u := range uses {
		out = append(out, fmt.Sprintf("%s%v%v", cat.Pred(u.Pred).Name, u.Src, u.Cols))
	}
	slices.Sort(out)
	return strings.Join(slices.Compact(out), " ")
}

// TestIndexUsesTC pins which relation each of TC's lowerings reads through
// an index: a Run's plans probe tc only through its delta, so Derived tc
// carries no index until a warm continuation or a retraction reads it.
func TestIndexUsesTC(t *testing.T) {
	p, _, _ := buildTC(t)
	cat := p.Catalog
	root, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderUses(cat, IndexUses(root)), "edge⋆[0] tcδ[1]"; got != want {
		t.Errorf("Lower: uses %s, want %s", got, want)
	}
	warm, err := LowerWarm(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderUses(cat, IndexUses(warm)), "edgeδ[0] edge⋆[0] tcδ[1] tc⋆∖δ[1]"; got != want {
		t.Errorf("LowerWarm: uses %s, want %s", got, want)
	}
	rules, err := LowerRetract(p)
	if err != nil {
		t.Fatal(err)
	}
	// The Rederive candidate atom tcδ(x,y) is the head: it adds no
	// occurrence, so the body atoms keep the rule's own join columns and
	// the candidate joins on none.
	if got, want := renderUses(cat, RetractIndexUses(rules)), "edgeδ[0] edge⋆[0] tcδ[1] tc⋆[1]"; got != want {
		t.Errorf("LowerRetract: uses %s, want %s", got, want)
	}
	naive, err := LowerNaive(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderUses(cat, IndexUses(naive)), "edge⋆[0] tc⋆[1]"; got != want {
		t.Errorf("LowerNaive: uses %s, want %s", got, want)
	}
}

// TestIndexUsesColumns: constants, shared variables and variables repeated
// in one atom are join columns, a variable that occurs once is not, and
// negated atoms have no use.
func TestIndexUsesColumns(t *testing.T) {
	cat := storage.NewCatalog()
	e := cat.Declare("e", 3)
	n := cat.Declare("n", 1)
	out := cat.Declare("out", 2)
	p := ast.NewProgram(cat)
	p.MustAddRule(&ast.Rule{
		Head: ast.Rel(out, ast.V(0), ast.V(1)),
		Body: []ast.Atom{
			ast.Rel(e, ast.C(7), ast.V(0), ast.V(1)),
			ast.Rel(e, ast.V(1), ast.V(2), ast.C(5)),
			ast.Rel(e, ast.V(3), ast.V(3), ast.V(4)),
			ast.Neg(n, ast.V(0)),
		},
		NumVars: 5,
	})
	root, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderUses(cat, IndexUses(root)), "e⋆[0 1 2] e⋆[0 1] e⋆[0 2]"; got != want {
		t.Errorf("uses %s, want %s", got, want)
	}
}
