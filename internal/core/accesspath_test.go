// Tests for per-source index registration: every index a plan probes is
// registered on the relation its step reads, and Derived carries no index
// that no plan reads.
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"carac/internal/analysis"
	"carac/internal/ast"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

// accessProgram is one program whose every lowering the access-path test
// runs.
type accessProgram struct {
	name  string
	build func() *core.Program
}

// accessPrograms are linear TC, CSPA in both formulations, the points-to
// analyses and the non-linear programs.
func accessPrograms() []accessProgram {
	progs := []accessProgram{
		{"TC", func() *core.Program { return workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 3).P }},
	}
	for _, form := range []analysis.Formulation{analysis.HandOptimized, analysis.Unoptimized} {
		progs = append(progs,
			accessProgram{"CSPA/" + form.String(), func() *core.Program { return analysis.CSPA(form, datagen.CSPAGraph(60, 42)).P }},
			accessProgram{"Andersen/" + form.String(), func() *core.Program { return analysis.Andersen(form, datagen.SListLib(1, 5)).P }},
			accessProgram{"InvFuns/" + form.String(), func() *core.Program { return analysis.InvFuns(form, datagen.SListLib(1, 5)).P }},
		)
	}
	for pi, nl := range nonLinearPrograms() {
		progs = append(progs, accessProgram{nl.name, func() *core.Program {
			p := nl.build()
			rng := rand.New(rand.NewSource(int64(21 + pi)))
			for _, rel := range nl.bases {
				randomEdges(rng, 10, 16).load(p.Relation(rel, 2))
			}
			return p
		}})
	}
	return progs
}

// checkPlansProbe builds a plan for every subquery of the given lowerings
// of p (and of LowerRetract's, with retract), in several atom orders,
// against p's catalog as the Runs and Applies that planned them left its
// registration, and requires that each step with an equality check on a
// column its relation indexes probes it: a step asking another role's
// registration than the one of the relation it reads scans instead, which
// derives the same rows a scan per binding slower. Outside the Rederive
// subqueries, whose candidate atom binds variables the rule's body uses
// once, every such column must also be registered.
func checkPlansProbe(t *testing.T, p *core.Program, retract bool, lowerings ...func(*ast.Program) (*ir.ProgramOp, error)) {
	t.Helper()
	cat := p.Catalog()
	var spjs []*ir.SPJOp
	rederive := map[*ir.SPJOp]bool{}
	for _, lower := range lowerings {
		root, err := lower(p.AST())
		if err != nil {
			t.Fatal(err)
		}
		ir.Walk(root, func(o ir.Op) {
			if spj, ok := o.(*ir.SPJOp); ok {
				spjs = append(spjs, spj)
			}
		})
	}
	if retract {
		rules, err := ir.LowerRetract(p.AST())
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range rules {
			spjs = append(spjs, rr.Propagate...)
			spjs = append(spjs, rr.Rederive)
			rederive[rr.Rederive] = true
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, spj := range spjs {
		orig := spj.Atoms
		for range 24 {
			spj.Atoms = slices.Clone(orig)
			rng.Shuffle(len(spj.Atoms), func(i, j int) { spj.Atoms[i], spj.Atoms[j] = spj.Atoms[j], spj.Atoms[i] })
			plan, err := interp.BuildPlan(spj, cat)
			if err != nil {
				continue // an illegal order
			}
			for _, st := range plan.Steps {
				if st.Kind != interp.StepScan && st.Kind != interp.StepProbe && st.Kind != interp.StepProbeN {
					continue
				}
				pd, role := cat.Pred(st.Pred), st.Src.Role()
				for _, ck := range st.Checks {
					if ck.Mode == interp.CheckSameRow {
						continue
					}
					indexed := pd.IndexedColumn(role, ck.Col)
					if !indexed && !rederive[spj] {
						t.Fatalf("%s%v column %d is an equality check but not registered (%s)", pd.Name, st.Src, ck.Col, ir.Dump(spj, cat))
					}
					if indexed && st.Kind == interp.StepScan {
						t.Fatalf("%s%v scans with column %d bound, which it indexes (%s)", pd.Name, st.Src, ck.Col, ir.Dump(spj, cat))
					}
				}
			}
		}
		spj.Atoms = orig
	}
}

// TestPlansProbeRegisteredIndexes runs every lowering — Lower and LowerNaive
// by Run, LowerRetract and LowerWarm by an Apply that deletes a quarter of
// the ground facts and one that inserts them back, LowerWarm again by a
// materialized Serve — of each program under the push executor and lambda,
// and requires that no probe found its relation without the index it asked
// for: each would have answered by a filtered scan, correct but at the cost
// of a scan per probe. A plan must choose its probes from the registration
// of the relation its step reads, not from another role's.
func TestPlansProbeRegisteredIndexes(t *testing.T) {
	for _, prog := range accessPrograms() {
		for _, c := range []optCase{
			{"push", core.Options{Indexed: true}},
			{"lambda", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}},
		} {
			t.Run(prog.name+"/"+c.name, func(t *testing.T) {
				misses := storage.ProbeMisses()
				check := func(what string) {
					t.Helper()
					if n := storage.ProbeMisses() - misses; n != 0 {
						t.Fatalf("%s: %d probes found no index on the relation they read", what, n)
					}
				}
				p := prog.build()
				ground := map[string][][]storage.Value{}
				for _, pd := range p.Catalog().Preds() {
					ground[pd.Name] = pd.Derived.Snapshot()
				}
				if _, err := p.Run(c.opts); err != nil {
					t.Fatal(err)
				}
				check("Run")
				checkPlansProbe(t, p, false, ir.Lower)
				naive := c.opts
				naive.Naive = true
				if _, err := p.Run(naive); err != nil {
					t.Fatal(err)
				}
				check("naive Run")
				checkPlansProbe(t, p, false, ir.Lower, ir.LowerNaive)
				if _, err := p.Run(c.opts); err != nil {
					t.Fatal(err)
				}
				for _, del := range []bool{true, false} {
					tx := p.NewTx()
					for _, pd := range p.Catalog().Preds() {
						for i, row := range ground[pd.Name] {
							if i%4 != 1 {
								continue
							}
							if del {
								tx.DeleteTuple(p.Relation(pd.Name, pd.Arity), row)
							} else {
								tx.InsertTuple(p.Relation(pd.Name, pd.Arity), row)
							}
						}
					}
					res, err := p.Apply(tx, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("Apply (deletes %v)", del)
					if res.Cold {
						t.Fatalf("%s: fixture took the cold path", what)
					}
					check(what)
				}
				checkPlansProbe(t, p, true, ir.Lower, ir.LowerNaive, ir.LowerWarm)

				sp := prog.build()
				opts := c.opts
				opts.Materialize = true
				srv, err := sp.Serve(opts)
				if err != nil {
					t.Fatal(err)
				}
				query := func() {
					sess, err := srv.Session()
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					if _, err := sess.Query(); err != nil {
						t.Fatal(err)
					}
				}
				query()
				tx := sp.NewTx()
				for _, pd := range sp.Catalog().Preds() {
					if rows := ground[pd.Name]; len(rows) > 0 {
						row := append([]storage.Value(nil), rows[0]...)
						row[0] = 1 << 20 // a fresh value: the epoch derives warm
						tx.InsertTuple(sp.Relation(pd.Name, pd.Arity), row)
					}
				}
				if _, err := srv.IngestTx(tx); err != nil {
					t.Fatal(err)
				}
				srv.Publish()
				query()
				check("Serve")
			})
		}
	}
}

// TestDerivedIndexesOnlyWhatPlansRead: a TC Run reads tc only through its
// delta, so Derived tc holds no index bytes; the first Apply's warm and
// retraction plans read Derived tc on column 1, and registering that index
// links every row Derived already holds.
func TestDerivedIndexesOnlyWhatPlansRead(t *testing.T) {
	b := workloads.TransitiveClosure(analysis.HandOptimized, 700, 2100, 7)
	optsE := core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}
	if _, err := b.P.Run(optsE); err != nil {
		t.Fatal(err)
	}
	tc, _ := b.P.Catalog().PredByName("tc")
	if f := tc.Derived.Footprint(); f.Indexes != 0 || f.RowTable == 0 || f.Arena < 4*2*tc.Derived.Len() {
		t.Fatalf("after a Run Derived tc holds %+v for %d rows, want no index bytes", f, tc.Derived.Len())
	}
	if tc.IndexedColumn(storage.RoleDerived, 1) || !tc.IndexedColumn(storage.RoleDelta, 1) {
		t.Fatal("a Run registered tc's column 1 on Derived, or not on its delta")
	}

	edge := b.P.Relation("edge", 2)
	var first []storage.Value
	edge.Each(func(t []storage.Value) bool {
		first = append(first, t...)
		return false
	})
	tx := b.P.NewTx()
	tx.DeleteTuple(edge, first)
	if res, err := b.P.Apply(tx, optsE); err != nil || res.Cold {
		t.Fatalf("Apply: cold %v, %v", res != nil && res.Cold, err)
	}
	if !tc.IndexedColumn(storage.RoleDerived, 1) {
		t.Fatal("the Apply did not register tc's column 1 on Derived")
	}
	keys := map[storage.Value]bool{}
	tc.Derived.Each(func(t []storage.Value) bool {
		keys[t[1]] = true
		return true
	})
	linked := 0
	for k := range keys {
		chain, ok := tc.Derived.Probe(1, k)
		if !ok {
			t.Fatal("Derived tc has no column-1 index to probe")
		}
		for row := chain.First(); row >= 0; row = chain.Next(row) {
			linked++
		}
	}
	if linked != tc.Derived.Len() {
		t.Fatalf("Derived tc's column-1 index links %d of %d rows", linked, tc.Derived.Len())
	}
	if f := tc.Derived.Footprint(); f.Indexes < 4*tc.Derived.Len() {
		t.Fatalf("Derived tc's index holds %d bytes for %d rows", f.Indexes, tc.Derived.Len())
	}
}
