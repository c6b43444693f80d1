package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// Fault-injection tests of Apply's incremental path, through the one seam it
// has (Program.retractOrder): a retraction that cannot be planned, and a
// deadline that falls before and after the point of no return. Each leaves
// either the old fixpoint or a state the next Apply repairs — never a wrong
// answer reported as right.

// upRules is reachability along increasing edges: every rule carries a
// comparison, so an order exists in which the plan cannot be built.
func upRules() *Program {
	p := NewProgram()
	e, up := p.Relation("e", 2), p.Relation("up", 2)
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	p.MustRule(up.A(x, y), e.A(x, y), Lt(x, y))
	p.MustRule(up.A(x, y), up.A(x, z), e.A(z, y), Lt(z, y))
	return p
}

// applyFacts applies one transaction of deletions then insertions on rel.
func applyFacts(t *testing.T, p *Program, rel string, opts Options, dels, inss [][2]int32) (*ApplyResult, error) {
	t.Helper()
	r := p.Relation(rel, 2)
	tx := p.NewTx()
	for _, d := range dels {
		tx.DeleteTuple(r, []storage.Value{d[0], d[1]})
	}
	for _, i := range inss {
		tx.InsertTuple(r, []storage.Value{i[0], i[1]})
	}
	return p.Apply(tx, opts)
}

// checkOracle compares p with a fresh program run over exactly facts.
func checkOracle(t *testing.T, name string, p *Program, build func() *Program, rel string, facts [][2]int32) {
	t.Helper()
	o := build()
	for _, f := range facts {
		o.Relation(rel, 2).FactTuple([]storage.Value{f[0], f[1]})
	}
	if _, err := o.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	sameResults(t, name, snapshotAll(o), p)
}

// TestApplyRetractPlanFailureGoesCold forces every retraction plan to fail
// (a stub order that puts the guards first) and requires Apply to answer from
// the cold path with nothing double-counted: e(0,1) is asserted twice and
// retracted once, so a seed decrement that was not rolled back would retract
// it a second time and lose it.
func TestApplyRetractPlanFailureGoesCold(t *testing.T) {
	p := upRules()
	base := [][2]int32{{0, 1}, {0, 1}, {1, 3}, {0, 2}, {2, 3}, {3, 4}}
	if _, err := applyFacts(t, p, "e", Options{}, nil, base); err != nil {
		t.Fatal(err)
	}
	p.retractOrder = func(spj *ir.SPJOp) error {
		guardsFirst := func(a ir.Atom) int {
			if a.Kind == ast.AtomBuiltin {
				return 0
			}
			return 1
		}
		slices.SortStableFunc(spj.Atoms, func(a, b ir.Atom) int { return guardsFirst(a) - guardsFirst(b) })
		spj.DeltaIdx = spj.DeltaAtom()
		return nil
	}
	res, err := applyFacts(t, p, "e", Options{Indexed: true}, [][2]int32{{0, 1}, {1, 3}}, [][2]int32{{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cold {
		t.Fatal("a retraction with no buildable plan was applied incrementally")
	}
	if res.Deleted != 2 || res.Inserted != 1 {
		t.Fatalf("Deleted = %d, Inserted = %d, want 2 and 1 (the demoted attempt must not be counted)", res.Deleted, res.Inserted)
	}
	after := [][2]int32{{0, 1}, {0, 2}, {2, 3}, {3, 4}, {4, 5}}
	checkOracle(t, "demoted", p, upRules, "e", after)

	// With the optimizer back the next deletion is incremental again, and
	// e(0,1)'s remaining assertion is the last one.
	p.retractOrder = nil
	res, err = applyFacts(t, p, "e", Options{Indexed: true}, [][2]int32{{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold || res.Retracted == 0 {
		t.Fatalf("Cold = %v, Retracted = %d after the seam was cleared", res.Cold, res.Retracted)
	}
	checkOracle(t, "after", p, upRules, "e", after[1:])
}

// TestApplyTimeoutCoversRetraction stalls the retraction past Options.Timeout
// at two points. Before any row is removed the cancelled transaction must
// leave no trace: same rows, same counts, the standing fixpoint still good
// for an incremental Apply. After removal the ground facts carry the whole
// transaction, the fixpoint is marked broken and the next Apply recomputes.
func TestApplyTimeoutCoversRetraction(t *testing.T) {
	const timeout = 150 * time.Millisecond
	opts, hurried := Options{Indexed: true}, Options{Indexed: true, Timeout: timeout}
	var base [][2]int32
	for i := int32(0); i < 12; i++ {
		base = append(base, [2]int32{i, i + 1})
	}
	base = append(base, [2]int32{0, 2}, [2]int32{3, 4}) // a chord; e(3,4) twice
	chain := func() *Program { p, _ := buildTC(t, 0); return p }
	// stallAt returns a retraction order that keeps the source order and
	// sleeps through the deadline once, at the first subquery that is
	// (rederive) or is not a candidate-driven rederive plan.
	stallAt := func(rederive bool) func(*ir.SPJOp) error {
		done := false
		return func(spj *ir.SPJOp) error {
			isRederive := len(spj.Atoms) > 1 && spj.DeltaIdx == len(spj.Atoms)-1 && spj.Atoms[spj.DeltaIdx].Pred == spj.Sink
			if !done && isRederive == rederive {
				done = true
				time.Sleep(2 * timeout)
			}
			return nil
		}
	}

	t.Run("before removal", func(t *testing.T) {
		p := chain()
		if _, err := applyFacts(t, p, "edge", opts, nil, base); err != nil {
			t.Fatal(err)
		}
		before := snapshotAll(p)
		p.retractOrder = stallAt(false)
		dels, inss := [][2]int32{{3, 4}, {5, 6}}, [][2]int32{{20, 21}}
		_, err := applyFacts(t, p, "edge", hurried, dels, inss)
		if !errors.Is(err, interp.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		sameResults(t, "cancelled", before, p)
		if !p.haveFixpoint {
			t.Fatal("a retraction cancelled before removal invalidated the standing fixpoint")
		}
		// The same transaction, unhurried: incremental, and e(3,4) — whose
		// first retraction was rolled back — still has one assertion left.
		p.retractOrder = nil
		res, err := applyFacts(t, p, "edge", opts, dels, inss)
		if err != nil || res.Cold {
			t.Fatalf("retry: err = %v, Cold = %v", err, res != nil && res.Cold)
		}
		want := slices.DeleteFunc(slices.Clone(base[:13]), func(e [2]int32) bool { return e == [2]int32{5, 6} })
		checkOracle(t, "retry", p, chain, "edge", append(want, [2]int32{20, 21}))
	})

	t.Run("after removal", func(t *testing.T) {
		p := chain()
		if _, err := applyFacts(t, p, "edge", opts, nil, base); err != nil {
			t.Fatal(err)
		}
		p.retractOrder = stallAt(true)
		_, err := applyFacts(t, p, "edge", hurried, [][2]int32{{1, 2}, {5, 6}}, [][2]int32{{20, 21}})
		if !errors.Is(err, interp.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if p.haveFixpoint {
			t.Fatal("fixpoint still marked complete after a retraction was abandoned mid-way")
		}
		p.retractOrder = nil
		res, err := applyFacts(t, p, "edge", opts, [][2]int32{{8, 9}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Fatal("Apply maintained a broken fixpoint incrementally")
		}
		want := slices.DeleteFunc(slices.Clone(base), func(e [2]int32) bool {
			return e == [2]int32{1, 2} || e == [2]int32{5, 6} || e == [2]int32{8, 9}
		})
		checkOracle(t, "recomputed", p, chain, "edge", append(want, [2]int32{20, 21}))
	})
}
