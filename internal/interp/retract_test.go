package interp

import (
	"math/bits"
	"reflect"
	"testing"

	"carac/internal/ir"
	"carac/internal/optimizer"
	"carac/internal/parser"
	"carac/internal/stats"
	"carac/internal/storage"
)

// retractFixture runs src to fixpoint with join-key indexes and returns an
// interpreter wired the way core wires one for Apply (counted Derived, the
// optimizer as Reorder) plus the program's retraction table.
func retractFixture(t *testing.T, src string) (*Interp, []ir.RetractRule) {
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
	for pid, cols := range ir.JoinKeyColumns(res.Program) {
		cat.Pred(pid).BuildIndexes(cols)
	}
	if err := New(cat, nil).Run(root); err != nil {
		t.Fatal(err)
	}
	rules, err := ir.LowerRetract(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range cat.Preds() {
		pd.Derived.EnableCounts()
		pd.DeltaKnown.Clear()
		pd.DeltaNew.Clear()
	}
	in := New(cat, nil)
	live := stats.Catalog{Cat: cat}
	in.Reorder = func(spj *ir.SPJOp) error {
		_, err := optimizer.Reorder(spj, live, optimizer.DefaultOptions())
		return err
	}
	return in, rules
}

func pred(t *testing.T, cat *storage.Catalog, name string) *storage.PredicateDB {
	t.Helper()
	pd, ok := cat.PredByName(name)
	if !ok {
		t.Fatalf("predicate %q missing", name)
	}
	return pd
}

// TestRetractEmptyDeltaBuildsNoPlan pins the delta-driven round: a variant
// whose delta relation is empty is not planned, not run and not counted, so a
// closure costs one plan per (round, variant with a frontier) and no more.
func TestRetractEmptyDeltaBuildsNoPlan(t *testing.T) {
	in, rules := retractFixture(t, tcChain)
	var variants []*ir.SPJOp
	for _, rr := range rules {
		variants = append(variants, rr.Propagate...)
		variants = append(variants, rr.Rederive)
	}
	plans, err := in.retractPlans(variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 0 || in.Stats != (Stats{}) {
		t.Fatalf("empty deltas: %d plans, stats %+v; want none", len(plans), in.Stats)
	}

	// Retract edge(3,4) from 1→2→3→4. Round 1 has a frontier on edge only
	// (two variants read it), round 2 on tc only (one variant), and both
	// rederive plans have candidates: five plans, where running every variant
	// every round takes eleven.
	edge := pred(t, in.Cat, "edge")
	row, ok := edge.Derived.RowOf([]storage.Value{3, 4})
	if !ok {
		t.Fatal("edge(3,4) missing")
	}
	seeds := make([][]int32, in.Cat.NumPreds())
	seeds[edge.ID] = []int32{row}
	d, err := in.OverDelete(rules, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doomedRows(d, pred(t, in.Cat, "tc").ID); got != 3 {
		t.Fatalf("doomed %d tc rows, want tc(3,4), tc(2,4), tc(1,4)", got)
	}
	if in.Stats.PlanBuilds != 5 || in.Stats.SPJRuns != 5 {
		t.Fatalf("PlanBuilds = %d, SPJRuns = %d, want 5 and 5", in.Stats.PlanBuilds, in.Stats.SPJRuns)
	}
}

// TestRetractPlanShapes pins what the optimizer-ordered retraction plans
// look like when the delta is small against Derived: the delta drives and
// Derived is probed; and the rederive plan reaches the head predicate's
// Derived relation only through membership tests.
func TestRetractPlanShapes(t *testing.T) {
	src := ".decl edge(x:number, y:number)\n.decl tc(x:number, y:number)\n"
	for i := 0; i < 40; i++ {
		src += "edge(" + itoa(i) + "," + itoa(i+1) + ").\n"
	}
	src += "tc(x,y) :- edge(x,y).\ntc(x,y) :- tc(x,z), edge(z,y).\n"
	in, rules := retractFixture(t, src)
	edge, tc := pred(t, in.Cat, "edge"), pred(t, in.Cat, "tc")
	if tc.Derived.Len() < 10*edge.Derived.Len() {
		t.Fatalf("fixture: |tc| = %d is not large against |edge| = %d", tc.Derived.Len(), edge.Derived.Len())
	}

	// tc(x,z), δedge(z,y) in source order, with one doomed edge.
	recursive := rules[1]
	var variant *ir.SPJOp
	for _, spj := range recursive.Propagate {
		if spj.Atoms[spj.DeltaIdx].Pred == edge.ID {
			variant = spj
		}
	}
	if variant == nil || variant.DeltaIdx != 1 {
		t.Fatalf("fixture: no tc(x,z), δedge(z,y) variant in source order")
	}
	edge.DeltaKnown.Insert([]storage.Value{20, 21})
	plans, err := in.retractPlans([]*ir.SPJOp{variant})
	if err != nil || len(plans) != 1 {
		t.Fatalf("retractPlans = %d plans, %v", len(plans), err)
	}
	steps := plans[0].Steps
	if steps[0].Pred != edge.ID || steps[0].Src != ir.SrcDelta {
		t.Errorf("first step reads pred %d src %v, want the edge delta", steps[0].Pred, steps[0].Src)
	}
	if steps[1].Pred != tc.ID || steps[1].Kind != StepProbe {
		t.Errorf("tc step has kind %v, want an index probe", steps[1].Kind)
	}

	// Rederive plans with a handful of candidates staged.
	tc.DeltaKnown.Insert([]storage.Value{0, 21})
	tc.DeltaKnown.Insert([]storage.Value{20, 21})
	plans, err = in.retractPlans([]*ir.SPJOp{rules[0].Rederive, recursive.Rederive})
	if err != nil || len(plans) != 2 {
		t.Fatalf("retractPlans(rederive) = %d plans, %v", len(plans), err)
	}
	for pi, p := range plans {
		members := 0
		for _, st := range p.Steps {
			if st.Kind == StepMember {
				members++
			} else if st.Pred == tc.ID && st.Src == ir.SrcDerived {
				t.Errorf("rederive plan %d reads tc's Derived with step kind %v, want membership only", pi, st.Kind)
			}
		}
		if members == 0 {
			t.Errorf("rederive plan %d has no membership step: %+v", pi, p.Steps)
		}
	}
}

// TestOverDeletePooledMatchesSequential pins the barrier: with the round's
// plans fanned out across the pool the closure is the same rows as on one
// goroutine.
func TestOverDeletePooledMatchesSequential(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl a(x:number, y:number)
.decl b(x:number, y:number)
a(x,y) :- e(x,y).
a(x,y) :- b(x,z), e(z,y).
b(x,y) :- a(x,z), e(z,y).
b(x,y) :- a(x,y), e(y,x).
`
	for i := 0; i < 30; i++ {
		src += "e(" + itoa(i) + "," + itoa((i+1)%30) + ").\ne(" + itoa(i) + "," + itoa((i*7+3)%30) + ").\n"
	}
	closure := func(parallel bool) [][]uint64 {
		in, rules := retractFixture(t, src)
		in.Parallel, in.Workers = parallel, 4
		e := pred(t, in.Cat, "e")
		seeds := make([][]int32, in.Cat.NumPreds())
		seeds[e.ID] = []int32{0, 7, 19}
		d, err := in.OverDelete(rules, seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d.Bits
	}
	seq, pooled := closure(false), closure(true)
	if seq[1] == nil || seq[2] == nil {
		t.Fatalf("fixture: closure reached a: %v, b: %v", seq[1] != nil, seq[2] != nil)
	}
	if !reflect.DeepEqual(seq, pooled) {
		t.Fatalf("pooled closure differs from sequential:\n%v\n%v", pooled, seq)
	}
}

// doomedRows counts the rows of pid the closure doomed.
func doomedRows(d *Doomed, pid storage.PredID) int {
	n := 0
	for _, w := range d.Bits[pid] {
		n += bits.OnesCount64(w)
	}
	return n
}

// memberFrontierSrc has one rule whose over-delete reads its frontier fully
// bound — e is far smaller than a batch of deleted f rows, so the optimizer
// scans e and tests each pair against δf — and one that scans its frontier:
// δg drives and h is probed.
const memberFrontierSrc = `
.decl e(x:number, y:number)
.decl f(x:number, y:number)
.decl g(x:number, y:number)
.decl h(x:number, y:number)
.decl both(x:number, y:number)
.decl out(x:number, z:number)
both(x,y) :- e(x,y), f(x,y).
out(x,z) :- g(x,y), h(y,z).
e(0,0). e(1,1).
`

// TestRetractRoundSealsMemberFrontiers pins the conditional seal: a frontier
// is a list, and a round gives a row table to exactly the frontiers one of
// its plans reads through a StepMember on SrcDelta. Without the seal the
// membership step asks a list and the closure dies of the storage misuse
// panic.
func TestRetractRoundSealsMemberFrontiers(t *testing.T) {
	src := memberFrontierSrc
	for i := 0; i < 20; i++ {
		src += "f(" + itoa(i) + "," + itoa(i) + ").\ng(" + itoa(i) + "," + itoa(i+1) + ").\nh(" + itoa(i+1) + "," + itoa(i+2) + ").\n"
	}
	seeds := func(in *Interp) [][]int32 {
		s := make([][]int32, in.Cat.NumPreds())
		for _, name := range []string{"f", "g"} {
			pd := pred(t, in.Cat, name)
			for i := int32(0); i < 10; i++ {
				s[pd.ID] = append(s[pd.ID], i)
			}
		}
		return s
	}

	in, rules := retractFixture(t, src)
	d, err := in.OverDelete(rules, seeds(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doomedRows(d, pred(t, in.Cat, "both").ID); got != 2 {
		t.Fatalf("doomed %d both rows, want both(0,0) and both(1,1)", got)
	}
	if got := doomedRows(d, pred(t, in.Cat, "out").ID); got != 10 {
		t.Fatalf("doomed %d out rows, want 10", got)
	}

	// The first round by hand: the seeds are the frontier.
	in, rules = retractFixture(t, src)
	for pid, rows := range seeds(in) {
		pd := in.Cat.Pred(storage.PredID(pid))
		for _, row := range rows {
			pd.DeltaKnown.AppendDistinct(pd.Derived.Row(row))
		}
	}
	var variants []*ir.SPJOp
	for _, rr := range rules {
		variants = append(variants, rr.Propagate...)
	}
	plans, err := in.retractPlans(variants)
	if err != nil {
		t.Fatal(err)
	}
	member := map[storage.PredID]bool{}
	for _, p := range plans {
		for _, st := range p.Steps {
			if st.Kind == StepMember && st.Src == ir.SrcDelta {
				member[st.Pred] = true
			}
		}
	}
	if f, g := pred(t, in.Cat, "f").ID, pred(t, in.Cat, "g").ID; !member[f] || member[g] {
		t.Fatalf("fixture: plans test membership in δf %v, in δg %v; want true, false", member[f], member[g])
	}
	for _, pd := range in.Cat.Preds() {
		if pd.DeltaKnown.Empty() {
			continue
		}
		sealed := !panics(func() { pd.DeltaKnown.Contains(pd.DeltaKnown.Row(0)) })
		if sealed != member[pd.ID] {
			t.Errorf("frontier of %s sealed = %v, its plans test membership in it = %v", pd.Name, sealed, member[pd.ID])
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// probeFrontierSrc has a rule whose over-delete probes its frontier: e is far
// smaller than a batch of deleted f rows, so the optimizer scans e and probes
// δf on the column e binds.
const probeFrontierSrc = `
.decl e(x:number, y:number)
.decl f(x:number, y:number)
.decl out(x:number, z:number)
out(x,z) :- e(x,y), f(y,z).
e(0,0). e(1,1).
`

// TestRetractRoundEnsuresProbedFrontiers pins the round's other preparation:
// a frontier links its rows into an index only on demand, and a round ensures
// the index of every probe step its plans take on SrcDelta. Without the
// ensure the probe finds a stale index and the closure dies of the storage
// panic.
func TestRetractRoundEnsuresProbedFrontiers(t *testing.T) {
	src := probeFrontierSrc
	for i := 0; i < 20; i++ {
		src += "f(" + itoa(i%2) + "," + itoa(i) + ").\n"
	}
	seeds := func(in *Interp) [][]int32 {
		s := make([][]int32, in.Cat.NumPreds())
		f := pred(t, in.Cat, "f")
		for i := int32(0); i < 10; i++ {
			s[f.ID] = append(s[f.ID], i)
		}
		return s
	}
	in, rules := retractFixture(t, src)
	d, err := in.OverDelete(rules, seeds(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doomedRows(d, pred(t, in.Cat, "out").ID); got != 10 {
		t.Fatalf("doomed %d out rows, want 10", got)
	}

	// The first round by hand: the seeds are the frontier, and the plan
	// probes it.
	in, rules = retractFixture(t, src)
	f := pred(t, in.Cat, "f")
	for _, row := range seeds(in)[f.ID] {
		f.DeltaKnown.AppendDistinct(f.Derived.Row(row))
	}
	if f.DeltaKnown.DistinctCount(0) != -1 {
		t.Fatal("fixture: the frontier's index is current before the round")
	}
	plans, err := in.retractPlans(rules[0].Propagate)
	if err != nil {
		t.Fatal(err)
	}
	probed := false
	for _, p := range plans {
		for _, st := range p.Steps {
			probed = probed || (st.Kind == StepProbe && st.Src == ir.SrcDelta && st.Pred == f.ID)
		}
	}
	if !probed {
		t.Fatal("fixture: no plan probes δf")
	}
	if got := f.DeltaKnown.DistinctCount(0); got != 2 {
		t.Fatalf("after the round's preparation δf's index sees %d keys, want 2", got)
	}
}
