package interp

import (
	"fmt"
	"testing"

	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

// fullReads is root with every Old atom reading Full: semi-naive evaluation
// without the old/new split.
func fullReads(root *ir.ProgramOp) *ir.ProgramOp {
	c := ir.CloneSubtree(root).(*ir.ProgramOp)
	ir.Walk(c, func(o ir.Op) {
		if spj, ok := o.(*ir.SPJOp); ok {
			for i := range spj.Atoms {
				if spj.Atoms[i].Src == ir.SrcOld {
					spj.Atoms[i].Src = ir.SrcDerived
				}
			}
		}
	})
	return c
}

// rotations records the derivation and match counters at every SwapClearOp
// the interpreter reaches: per iteration, what the run had found so far.
type rotations struct{ derivations, matches []int64 }

func (r *rotations) Enter(op ir.Op, in *Interp) func() error {
	if _, ok := op.(*ir.SwapClearOp); ok {
		r.derivations = append(r.derivations, in.Stats.Derivations)
		r.matches = append(r.matches, in.Stats.Matches)
	}
	return nil
}

const nonLinearTC = `
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
tc(x,y) :- edge(x,y).
tc(x,z) :- tc(x,y), tc(y,z).
`

// oldFixture parses nonLinearTC over a chain of n edges with chords, lowers
// it and registers its join indexes.
func oldFixture(t *testing.T, n int) (*storage.Catalog, *ir.ProgramOp) {
	t.Helper()
	cat := storage.NewCatalog()
	res, err := parser.Parse(nonLinearTC, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	for pid, cols := range ir.JoinKeyColumns(res.Program) {
		cat.Pred(pid).BuildIndexes(cols)
	}
	edge, _ := cat.PredByName("edge")
	for i := 0; i < n; i++ {
		edge.AddFact([]storage.Value{storage.Value(i), storage.Value(i + 1)})
		edge.AddFact([]storage.Value{storage.Value(i), storage.Value((i * 5) % n)})
	}
	return cat, root
}

// TestOldFallsBackToFull: where δ is not a view of Derived's newest rows Old
// reads all of Derived, and the run derives what the run that reads Full
// everywhere derives — the same rows, the same derivations per iteration, and
// in the iterations that fall back, the same matches. After SeedAll δ is all
// of Derived and Old is empty, which also derives exactly what Full does.
func TestOldFallsBackToFull(t *testing.T) {
	const n = 24
	for _, c := range []struct {
		name string
		// setup prepares a fixture's catalog and interpreter before the
		// run, the same for both lowerings.
		setup func(t *testing.T, cat *storage.Catalog, root *ir.ProgramOp, in *Interp)
		// fallback reports whether rotation i's matches must equal Full's.
		fallback func(i int) bool
	}{
		{
			// The first iteration after SeedAll: Old is empty.
			name:     "seed-all",
			setup:    func(*testing.T, *storage.Catalog, *ir.ProgramOp, *Interp) {},
			fallback: func(int) bool { return false },
		},
		{
			// A warm start: a fixpoint, new edges whose tc rows are handed
			// to δ′ row by row (SeedDelta), so the first iteration's δ holds
			// rows of its own; later ones borrow again.
			name: "seed-delta",
			setup: func(t *testing.T, cat *storage.Catalog, root *ir.ProgramOp, in *Interp) {
				if err := New(cat, nil).Run(root); err != nil {
					t.Fatal(err)
				}
				edge, _ := cat.PredByName("edge")
				tc, _ := cat.PredByName("tc")
				var fresh [][]storage.Value
				for i := 0; i < 4; i++ {
					e := []storage.Value{storage.Value(n + i), storage.Value(3 * i)}
					edge.AddFact(e)
					if tc.Derived.Insert(e) {
						fresh = append(fresh, e)
					}
				}
				in.SeedDelta = func(pid storage.PredID, seed func([]storage.Value)) bool {
					if pid == tc.ID {
						for _, e := range fresh {
							seed(e)
						}
					}
					return true
				}
			},
			fallback: func(i int) bool { return i == 1 }, // rotation 0 ends tc's prologue
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var runs [2]rotations
			var rows [2]string
			for k, lower := range []func(*ir.ProgramOp) *ir.ProgramOp{func(r *ir.ProgramOp) *ir.ProgramOp { return r }, fullReads} {
				cat, root := oldFixture(t, n)
				in := New(cat, &runs[k])
				c.setup(t, cat, root, in)
				if err := in.Run(lower(root)); err != nil {
					t.Fatal(err)
				}
				rows[k] = fmt.Sprint(derived(t, cat, "tc"))
			}
			old, full := runs[0], runs[1]
			if rows[0] != rows[1] {
				t.Fatal("reading Old derived other tc rows than reading Full")
			}
			if fmt.Sprint(old.derivations) != fmt.Sprint(full.derivations) {
				t.Fatalf("derivations per rotation: Old %v, Full %v", old.derivations, full.derivations)
			}
			for i := range old.matches {
				var prevOld, prevFull int64
				if i > 0 {
					prevOld, prevFull = old.matches[i-1], full.matches[i-1]
				}
				o, f := old.matches[i]-prevOld, full.matches[i]-prevFull
				if c.fallback(i) && o != f || o > f {
					t.Errorf("rotation %d: %d matches reading Old, %d reading Full (fallback %v)", i, o, f, c.fallback(i))
				}
			}
			if c.name == "seed-all" && old.matches[len(old.matches)-1] >= full.matches[len(full.matches)-1] {
				t.Errorf("reading Old emitted %d matches, reading Full %d: want fewer", old.matches[len(old.matches)-1], full.matches[len(full.matches)-1])
			}
		})
	}
}
