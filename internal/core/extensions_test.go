package core

import (
	"testing"

	"carac/internal/jit"
	"carac/internal/optimizer"
	"carac/internal/storage"
)

// buildMultiKey returns a program whose recursive rule joins on two columns
// simultaneously, so composite indexes actually engage:
// path(a,b,c) :- step(a,b,c).  path(a,b,c2) :- path(a,b,c), step(b,c,c2)? —
// simpler: grid reachability keyed by (row, col).
func buildMultiKey(t testing.TB) (*Program, *Relation) {
	t.Helper()
	p := NewProgram()
	step := p.Relation("step", 4) // (r1,c1) -> (r2,c2)
	reach := p.Relation("reach", 2)
	start := p.Relation("start", 2)
	r1, c1, r2, c2 := NewVar("r1"), NewVar("c1"), NewVar("r2"), NewVar("c2")
	p.MustRule(reach.A(r1, c1), start.A(r1, c1))
	p.MustRule(reach.A(r2, c2), reach.A(r1, c1), step.A(r1, c1, r2, c2))
	start.MustFact(0, 0)
	const n = 12
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r+1 < n {
				step.MustFact(r, c, r+1, c)
			}
			if c+1 < n {
				step.MustFact(r, c, r, c+1)
			}
		}
	}
	return p, reach
}

func TestCompositeIndexesSameResults(t *testing.T) {
	p1, out1 := buildMultiKey(t)
	if _, err := p1.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	p2, out2 := buildMultiKey(t)
	res, err := p2.Run(Options{Indexed: true, CompositeIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if out1.Len() != out2.Len() {
		t.Fatalf("composite indexes changed results: %d vs %d", out1.Len(), out2.Len())
	}
	if out2.Len() != 12*12 {
		t.Fatalf("|reach| = %d, want 144", out2.Len())
	}
	_ = res
	// The composite index must actually be registered on the step relation.
	step, _ := p2.Catalog().PredByName("step")
	if len(step.CompositeIndexes(storage.RoleDerived)) == 0 {
		t.Fatal("no composite index registered despite multi-column signature")
	}
}

func TestCompositeIndexesAcrossBackends(t *testing.T) {
	for _, b := range []jit.Backend{jit.BackendIRGen, jit.BackendLambda, jit.BackendBytecode, jit.BackendQuotes} {
		p, out := buildMultiKey(t)
		if _, err := p.Run(Options{Indexed: true, CompositeIndexes: true,
			JIT: jit.Config{Backend: b, Granularity: jit.GranUnionAll}}); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if out.Len() != 144 {
			t.Fatalf("%v: |reach| = %d, want 144", b, out.Len())
		}
	}
}

func TestParallelUnionsViaOptions(t *testing.T) {
	p1, o1 := buildTC(t, 20)
	if _, err := p1.Run(Options{Indexed: true, ParallelUnions: true}); err != nil {
		t.Fatal(err)
	}
	if o1.Len() != 210 {
		t.Fatalf("parallel |tc| = %d, want 210", o1.Len())
	}
}

func TestIncrementalFactsBetweenRuns(t *testing.T) {
	p, tc := buildTC(t, 5)
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 15 {
		t.Fatalf("|tc| = %d, want 15", tc.Len())
	}
	// Extend the chain after the first run: 5 -> 6.
	edge := p.Relation("edge", 2)
	edge.MustFact(5, 6)
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 21 {
		t.Fatalf("after incremental fact: |tc| = %d, want 21", tc.Len())
	}
	// And again, repeatedly, with an indexed run in between.
	edge.MustFact(6, 7)
	edge.MustFact(7, 8)
	if _, err := p.Run(Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 36 {
		t.Fatalf("after second batch: |tc| = %d, want 36", tc.Len())
	}
	// Reruns without new facts stay stable.
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 36 {
		t.Fatalf("rerun drifted: |tc| = %d", tc.Len())
	}
}

func TestIncrementalFactDuplicateDoesNotInflateBaseline(t *testing.T) {
	p, tc := buildTC(t, 4)
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	edge := p.Relation("edge", 2)
	edge.MustFact(0, 1) // duplicate of an existing ground fact
	if _, err := p.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 10 {
		t.Fatalf("|tc| = %d, want 10", tc.Len())
	}
}

func TestDistinctStatsOptimizer(t *testing.T) {
	p, out := buildMultiKey(t)
	res, err := p.Run(Options{Indexed: true,
		JIT: jit.Config{
			Backend:     jit.BackendIRGen,
			Granularity: jit.GranSPJ,
			Optimizer:   optimizer.Options{UseDistinctStats: true, Selectivity: 0.5},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 144 {
		t.Fatalf("|reach| = %d, want 144", out.Len())
	}
	_ = res
}

func TestExecutorsAgreeOnAnalysisWorkload(t *testing.T) {
	mk := func(parallel bool) int {
		p, out := buildMultiKey(t)
		workers := 1
		if parallel {
			workers = 4
		}
		if _, err := p.Run(Options{Indexed: true, ParallelUnions: parallel, Workers: workers, FanoutThreshold: 1}); err != nil {
			t.Fatal(err)
		}
		return out.Len()
	}
	if seq, par := mk(false), mk(true); par != seq {
		t.Fatalf("parallel %d != sequential %d", par, seq)
	}
}
