package jit

import (
	"testing"

	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

// TestSeedHookCompiledScan: a compiled ScanOp seeds δ′ through the
// interpreter's SeedDelta hook exactly like an interpreted one. The catalog
// holds the closure of a 20-edge chain plus one new edge (20,21); the warm
// lowering runs as one GranProgram unit per backend. A hook that seeds
// nothing must derive nothing — a ScanOp that bypasses it re-joins the whole
// database and finds the new edge's 21 pairs anyway — and a hook that seeds
// the new edge must derive exactly those 21.
func TestSeedHookCompiledScan(t *testing.T) {
	const n = 20
	build := func() (*storage.Catalog, *ir.ProgramOp) {
		cat := storage.NewCatalog()
		res, err := parser.Parse(tcSrc, cat)
		if err != nil {
			t.Fatal(err)
		}
		edge, _ := cat.PredByName("edge")
		tc, _ := cat.PredByName("tc")
		for i := 0; i <= n; i++ {
			edge.AddFact([]storage.Value{storage.Value(i), storage.Value(i + 1)})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				tc.AddFact([]storage.Value{storage.Value(i), storage.Value(j)})
			}
		}
		root, err := ir.LowerWarm(res.Program)
		if err != nil {
			t.Fatal(err)
		}
		for pid, cols := range ir.JoinKeyColumns(res.Program) {
			cat.Pred(pid).BuildIndexes(cols)
		}
		return cat, root
	}
	for _, b := range []Backend{BackendLambda, BackendBytecode, BackendQuotes} {
		for _, seedEdge := range []bool{false, true} {
			cat, root := build()
			edge, _ := cat.PredByName("edge")
			ctrl := New(cat, root, Config{Backend: b, Granularity: GranProgram})
			in := interp.New(cat, ctrl)
			in.SeedDelta = func(pid storage.PredID, seed func([]storage.Value)) bool {
				if seedEdge && pid == edge.ID {
					seed([]storage.Value{n, n + 1})
				}
				return true
			}
			if err := in.Run(root); err != nil {
				t.Fatal(err)
			}
			ctrl.Close()
			want := int64(0)
			if seedEdge {
				want = n + 1
			}
			tc, _ := cat.PredByName("tc")
			if in.Stats.Compiled == 0 || in.Stats.Derivations != want || tc.Derived.Len() != wantTC(n)+int(want) {
				t.Errorf("%v, seed edge %v: %d compiled units derived %d facts (|tc| = %d), want %d (|tc| = %d)",
					b, seedEdge, in.Stats.Compiled, in.Stats.Derivations, tc.Derived.Len(), want, wantTC(n)+int(want))
			}
		}
	}
}
