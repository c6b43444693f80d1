// Package interp implements the tree-walking interpreter over IROps and the
// access-plan machinery that every compilation backend shares: a plan
// resolves one SPJ subquery's atom order into a sequence of scan/probe/
// filter/bind steps, choosing an indexed probe column per atom when one is
// available.
//
// Plans reference relations by (predicate, source) and resolve them at
// execution time, because SwapClearOp swaps relation identities between
// iterations; a plan therefore stays valid across iterations while the atom
// order it froze may grow stale — exactly the staleness the JIT's freshness
// test measures.
package interp

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/eval"
	"carac/internal/ir"
	"carac/internal/storage"
)

// CheckMode discriminates equality filters within a relational step.
type CheckMode uint8

const (
	// CheckConst compares a column against a constant.
	CheckConst CheckMode = iota
	// CheckVar compares a column against an already-bound variable.
	CheckVar
	// CheckSameRow compares a column against an earlier column of the same
	// row (intra-atom repeated variable).
	CheckSameRow
)

// ColCheck is one equality filter on a relational step.
type ColCheck struct {
	Col   int
	Mode  CheckMode
	Const storage.Value // CheckConst
	Var   ast.VarID     // CheckVar
	Other int           // CheckSameRow
}

// ColBind records that a column's value binds a variable.
type ColBind struct {
	Col int
	Var ast.VarID
}

// StepKind discriminates plan steps.
type StepKind uint8

const (
	// StepScan iterates all rows of a relation, filtering.
	StepScan StepKind = iota
	// StepProbe looks rows up through a hash index on ProbeCol.
	StepProbe
	// StepProbeN looks rows up through a composite index on ProbeCols.
	StepProbeN
	// StepNegCheck asserts the absence of a fully bound tuple.
	StepNegCheck
	// StepBuiltin evaluates a builtin: pure filter if Out < 0, otherwise it
	// solves and binds the output term.
	StepBuiltin
	// StepMember asserts the presence of a fully bound tuple: StepNegCheck's
	// positive twin, one row-table lookup where a probe would walk a chain
	// and filter it. BuildPlan never emits it; retraction rewrites its own
	// plans (memberSteps), which only Plan.Execute runs — the compiled
	// backends do not know the kind.
	StepMember
)

// TmplElem is one position of a negation tuple template.
type TmplElem struct {
	IsConst bool
	Const   storage.Value
	Var     ast.VarID
}

// Step is one atom of a compiled access plan.
type Step struct {
	Kind StepKind

	// Relational steps.
	Pred      storage.PredID
	Src       ir.Source
	ProbeCol  int // StepProbe: the indexed column
	ProbeKey  TmplElem
	ProbeCols []int      // StepProbeN: ascending composite columns
	ProbeKeys []TmplElem // StepProbeN: parallel to ProbeCols
	Checks    []ColCheck
	Binds     []ColBind

	// StepNegCheck, StepMember.
	Tmpl []TmplElem

	// StepBuiltin.
	Builtin ast.Builtin
	Args    []TmplElem
	Out     int       // index into Args receiving the solved value, -1 = filter
	OutVar  ast.VarID // variable bound by Out
}

// Plan is a fully resolved execution strategy for one SPJ subquery in one
// specific atom order.
type Plan struct {
	Steps   []Step
	Head    []ir.ProjElem
	Sink    storage.PredID
	NumVars int
	Agg     ast.AggSpec

	// EstRows is the histogram-based join-output size estimate recorded when
	// the plan was built (see Interp.Estimate); 0 when estimation is off.
	EstRows float64

	// Cancel, when non-nil, is polled once per row of the outermost
	// relation so that multi-minute cartesian products can be aborted
	// (benchmark DNF timeouts).
	Cancel func() bool
	// Yield, when non-nil, is polled alongside Cancel: returning true
	// abandons the rest of this execution and sets Yielded. The interpreter
	// uses it to escape a long-running badly-ordered subquery the moment an
	// asynchronously compiled ancestor unit becomes ready (paper §V-B2:
	// compiled code takes over "at the exact spot the interpreter left
	// off"); abandoning is sound because the ancestor unit recomputes the
	// subsumed work from storage state, and an abandoned aggregate emits
	// none of its partial groups.
	Yield func() bool
	// Yielded reports that the last Execute was abandoned via Yield.
	Yielded bool

	// Morsel restriction (per-execution state, set by a pool task on the
	// plan it built; unset on a freshly built plan): when Morsel is set the
	// relational step at index MorselStep — the subquery's delta read —
	// reads only δ's rows [MorselFrom, MorselTo), the task's morsel
	// (storage.Morsel), so the tasks evaluating this subquery read disjoint
	// row ranges of δ and their union covers it exactly.
	Morsel     bool
	MorselStep int
	MorselFrom int
	MorselTo   int
}

// SourceRel resolves the relation a relational step reads right now and its
// row bound: a reader visits only rows below it (storage.Relation.Scan,
// ScanKey). Old is Derived bounded by PredicateDB.OldBound; Full and δ are
// unbounded (storage.AllRows). The bound moves at every SwapClear, so it
// is resolved each time a plan runs, never when one is built or compiled.
// Every executor passes it to storage as the end of the row range it reads.
func SourceRel(cat *storage.Catalog, pred storage.PredID, src ir.Source) (*storage.Relation, int) {
	p := cat.Pred(pred)
	switch src {
	case ir.SrcDelta:
		return p.DeltaKnown, storage.AllRows
	case ir.SrcOld:
		return p.Derived, p.OldBound()
	}
	return p.Derived, storage.AllRows
}

// EnsureDeltaIndexes brings up to date the delta index of every probe step of
// the plan (storage.Relation.EnsureIndex). It runs on the coordinating
// goroutine where a plan starts executing, never in a pool task.
func EnsureDeltaIndexes(p *Plan, cat *storage.Catalog) {
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Src != ir.SrcDelta {
			continue
		}
		switch st.Kind {
		case StepProbe:
			cat.Pred(st.Pred).DeltaKnown.EnsureIndex([]int{st.ProbeCol})
		case StepProbeN:
			cat.Pred(st.Pred).DeltaKnown.EnsureIndex(st.ProbeCols)
		}
	}
}

// BuildPlan compiles the SPJ's current atom order into a Plan. It returns an
// error if the order violates binding constraints (builtin inputs or negated
// atoms unbound when reached) — compiled backends rely on this as their
// soundness check, and the optimizer never produces illegal orders.
func BuildPlan(spj *ir.SPJOp, cat *storage.Catalog) (*Plan, error) {
	p := &Plan{
		Steps:   make([]Step, 0, len(spj.Atoms)), // one per atom
		Head:    spj.Head,
		Sink:    spj.Sink,
		NumVars: spj.NumVars,
		Agg:     spj.Agg,
	}
	bound := make([]bool, spj.NumVars)
	for ai, a := range spj.Atoms {
		switch a.Kind {
		case ast.AtomRelation:
			st := Step{Kind: StepScan, Pred: a.Pred, Src: a.Src, ProbeCol: -1}
			firstOcc := map[ast.VarID]int{}
			for col, t := range a.Terms {
				switch t.Kind {
				case ast.TermConst:
					st.Checks = append(st.Checks, ColCheck{Col: col, Mode: CheckConst, Const: t.Val})
				case ast.TermVar:
					if prev, ok := firstOcc[t.Var]; ok {
						st.Checks = append(st.Checks, ColCheck{Col: col, Mode: CheckSameRow, Other: prev})
						continue
					}
					firstOcc[t.Var] = col
					if bound[t.Var] {
						st.Checks = append(st.Checks, ColCheck{Col: col, Mode: CheckVar, Var: t.Var})
					} else {
						st.Binds = append(st.Binds, ColBind{Col: col, Var: t.Var})
					}
				}
			}
			// Probe selection asks the registration of the relations this
			// step reads (Derived for Full and Old, the delta pair for δ),
			// which differ: each holds only what some plan reads. It lives
			// on the PredicateDB, which SwapClear never swaps, so plan
			// building is safe on the asynchronous compile thread while the
			// interpreter runs.
			selectProbe(&st, cat.Pred(a.Pred))
			for _, b := range st.Binds {
				bound[b.Var] = true
			}
			p.Steps = append(p.Steps, st)

		case ast.AtomNegated:
			st := Step{Kind: StepNegCheck, Pred: a.Pred, Src: a.Src}
			for _, t := range a.Terms {
				switch t.Kind {
				case ast.TermConst:
					st.Tmpl = append(st.Tmpl, TmplElem{IsConst: true, Const: t.Val})
				case ast.TermVar:
					if !bound[t.Var] {
						return nil, fmt.Errorf("interp: negated atom %d reached with unbound variable v%d", ai, t.Var)
					}
					st.Tmpl = append(st.Tmpl, TmplElem{Var: t.Var})
				}
			}
			p.Steps = append(p.Steps, st)

		case ast.AtomBuiltin:
			outs, ok := ast.BuiltinBindable(ir2astAtom(a), func(v ast.VarID) bool { return bound[v] })
			if !ok {
				return nil, fmt.Errorf("interp: builtin %v at atom %d has unbound inputs", a.Builtin, ai)
			}
			st := Step{Kind: StepBuiltin, Builtin: a.Builtin, Out: -1}
			for _, t := range a.Terms {
				if t.Kind == ast.TermConst {
					st.Args = append(st.Args, TmplElem{IsConst: true, Const: t.Val})
				} else {
					st.Args = append(st.Args, TmplElem{Var: t.Var})
				}
			}
			if len(outs) == 1 {
				st.Out = outs[0]
				t := a.Terms[outs[0]]
				st.OutVar = t.Var
				bound[t.Var] = true
			} else if len(outs) > 1 {
				return nil, fmt.Errorf("interp: builtin %v at atom %d has %d unbound outputs", a.Builtin, ai, len(outs))
			}
			p.Steps = append(p.Steps, st)
		}
	}
	// Head safety (belt and braces; ast.CheckRule already enforced this).
	for i, h := range p.Head {
		if !h.IsConst && !bound[h.Var] {
			if p.Agg.Kind != ast.AggNone && i == p.Agg.HeadPos {
				continue
			}
			return nil, fmt.Errorf("interp: head position %d unbound after body", i)
		}
	}
	return p, nil
}

// selectProbe upgrades a scan step to the best probe registered on the
// relations it reads (pd's registration for the role of st.Src): the widest
// composite index fully covered by the step's const/var equality checks,
// else the first single-column indexed check. Consumed checks move into the
// probe key; the rest stay row filters. Steps that are already probes, or
// that have no equality check to probe on, are left alone.
func selectProbe(st *Step, pd *storage.PredicateDB) {
	if st.Kind != StepScan || len(st.Checks) == 0 {
		return
	}
	role := st.Src.Role()
	if comp := chooseComposite(pd.CompositeIndexes(role), st.Checks); comp != nil {
		st.Kind = StepProbeN
		st.ProbeCol = -1
		st.ProbeCols = comp.cols
		st.ProbeKeys = comp.keys
		st.Checks = comp.rest
		return
	}
	for ci, ck := range st.Checks {
		if ck.Mode == CheckSameRow || !pd.IndexedColumn(role, ck.Col) {
			continue
		}
		st.Kind = StepProbe
		st.ProbeCol = ck.Col
		if ck.Mode == CheckConst {
			st.ProbeKey = TmplElem{IsConst: true, Const: ck.Const}
		} else {
			st.ProbeKey = TmplElem{Var: ck.Var}
		}
		rest := make([]ColCheck, 0, len(st.Checks)-1)
		rest = append(rest, st.Checks[:ci]...)
		rest = append(rest, st.Checks[ci+1:]...)
		st.Checks = rest
		return
	}
}

// memberSteps turns every relational step that binds nothing — its atom
// arrives fully bound — into a StepMember: without it tc(x,z) with both
// columns bound probes one column's chain and filters it row by row.
func memberSteps(p *Plan, spj *ir.SPJOp) {
	for i := range p.Steps {
		st, a := &p.Steps[i], spj.Atoms[i]
		if a.Kind != ast.AtomRelation || len(st.Binds) > 0 {
			continue
		}
		m := Step{Kind: StepMember, Pred: st.Pred, Src: st.Src}
		for _, t := range a.Terms {
			m.Tmpl = append(m.Tmpl, TmplElem{IsConst: t.Kind == ast.TermConst, Const: t.Val, Var: t.Var})
		}
		*st = m
	}
}

func ir2astAtom(a ir.Atom) ast.Atom {
	return ast.Atom{Kind: a.Kind, Pred: a.Pred, Builtin: a.Builtin, Terms: a.Terms}
}

// compositeChoice is the outcome of matching equality filters against the
// relation's registered composite indexes.
type compositeChoice struct {
	cols []int
	keys []TmplElem
	rest []ColCheck
}

// chooseComposite finds the widest of the registered composite column sets
// whose columns are all covered by const/var equality checks.
func chooseComposite(sets [][]int, checks []ColCheck) *compositeChoice {
	if len(sets) == 0 {
		return nil
	}
	byCol := make(map[int]ColCheck, len(checks))
	for _, ck := range checks {
		if ck.Mode == CheckSameRow {
			continue
		}
		if _, dup := byCol[ck.Col]; !dup {
			byCol[ck.Col] = ck
		}
	}
	var best []int
	for _, cols := range sets {
		if len(cols) <= len(best) {
			continue
		}
		covered := true
		for _, c := range cols {
			if _, ok := byCol[c]; !ok {
				covered = false
				break
			}
		}
		if covered {
			best = cols
		}
	}
	if best == nil {
		return nil
	}
	choice := &compositeChoice{cols: best}
	used := make(map[int]bool, len(best))
	for _, c := range best {
		ck := byCol[c]
		if ck.Mode == CheckConst {
			choice.keys = append(choice.keys, TmplElem{IsConst: true, Const: ck.Const})
		} else {
			choice.keys = append(choice.keys, TmplElem{Var: ck.Var})
		}
		used[c] = true
	}
	consumed := make(map[int]bool, len(best))
	for _, ck := range checks {
		if ck.Mode != CheckSameRow && used[ck.Col] && !consumed[ck.Col] {
			consumed[ck.Col] = true
			continue // absorbed by the probe (first check per column only)
		}
		choice.rest = append(choice.rest, ck)
	}
	return choice
}

// resolve evaluates a template element under the current bindings.
func (t TmplElem) resolve(bind []storage.Value) storage.Value {
	if t.IsConst {
		return t.Const
	}
	return bind[t.Var]
}

// Execute runs the plan against the catalog, invoking emit for every body
// match with the projected head tuple and the full variable bindings (the
// latter lets aggregation sinks read the aggregated variable). Both slices
// are reused across calls; emit must copy what it keeps.
func (p *Plan) Execute(cat *storage.Catalog, emit func(head, bind []storage.Value)) {
	bind := make([]storage.Value, p.NumVars)
	head := make([]storage.Value, len(p.Head))
	// One scratch holds every step's key, argument or membership tuple,
	// used as a stack by step depth: step i's buffer starts at off and the
	// steps below it use what follows, so no row allocates one.
	need := 0
	for i := range p.Steps {
		need += p.Steps[i].scratchLen()
	}
	scratch := make([]storage.Value, need)
	var rec func(i, off int)
	rec = func(i, off int) {
		if i == len(p.Steps) {
			for hi, h := range p.Head {
				if h.IsConst {
					head[hi] = h.Const
				} else {
					head[hi] = bind[h.Var]
				}
			}
			emit(head, bind)
			return
		}
		st := &p.Steps[i]
		next := off + st.scratchLen()
		switch st.Kind {
		case StepScan, StepProbe, StepProbeN:
			rel, to := SourceRel(cat, st.Pred, st.Src)
			from := 0
			if p.Morsel && i == p.MorselStep {
				from, to = p.MorselFrom, p.MorselTo
			}
			// Poll cancellation/yield in the two outermost loops: the outer
			// one alone is not enough when a tiny delta drives a huge inner
			// cartesian product.
			checkCancel := i <= 1 && p.Cancel != nil
			checkYield := i <= 1 && p.Yield != nil
			visit := func(row []storage.Value) bool {
				if p.Yielded || (checkCancel && p.Cancel()) {
					return false
				}
				if checkYield && p.Yield() {
					p.Yielded = true
					return false
				}
				for _, ck := range st.Checks {
					switch ck.Mode {
					case CheckConst:
						if row[ck.Col] != ck.Const {
							return true
						}
					case CheckVar:
						if row[ck.Col] != bind[ck.Var] {
							return true
						}
					case CheckSameRow:
						if row[ck.Col] != row[ck.Other] {
							return true
						}
					}
				}
				for _, b := range st.Binds {
					bind[b.Var] = row[b.Col]
				}
				rec(i+1, next)
				return true
			}
			// Storage owns the access path: the row range, the key's chain
			// and the filtered scan where no index answers.
			switch st.Kind {
			case StepProbe:
				rel.ScanKey(from, to, []int{st.ProbeCol}, []storage.Value{st.ProbeKey.resolve(bind)}, visit)
			case StepProbeN:
				vals := scratch[off:next]
				for ki, k := range st.ProbeKeys {
					vals[ki] = k.resolve(bind)
				}
				rel.ScanKey(from, to, st.ProbeCols, vals, visit)
			default:
				rel.Scan(from, to, visit)
			}

		case StepNegCheck, StepMember:
			// Never Old: a negated atom is in a lower stratum, and a
			// membership step reads δ or Full (retraction's lowerings).
			rel, _ := SourceRel(cat, st.Pred, st.Src)
			t := scratch[off:next]
			for ti, tm := range st.Tmpl {
				t[ti] = tm.resolve(bind)
			}
			if rel.Contains(t) == (st.Kind == StepMember) {
				rec(i+1, next)
			}

		case StepBuiltin:
			vals := scratch[off:next]
			for vi, a := range st.Args {
				if st.Out == vi {
					continue
				}
				vals[vi] = a.resolve(bind)
			}
			if st.Out < 0 {
				if eval.Check(st.Builtin, vals) {
					rec(i+1, next)
				}
				return
			}
			v, ok := eval.Solve(st.Builtin, vals, st.Out)
			if !ok {
				return
			}
			bind[st.OutVar] = v
			rec(i+1, next)
		}
	}
	rec(0, 0)
}

// scratchLen is how many values the step's key, builtin arguments or
// membership tuple take in Execute's scratch.
func (st *Step) scratchLen() int {
	switch st.Kind {
	case StepProbeN:
		return len(st.ProbeKeys)
	case StepBuiltin:
		return len(st.Args)
	case StepNegCheck, StepMember:
		return len(st.Tmpl)
	}
	return 0
}
