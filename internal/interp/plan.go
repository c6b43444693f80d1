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
	// Part of the cached artifact: bindPlan's struct copy carries it through
	// rebinds, so the recorded estimate stays attached to the atom order it
	// justified.
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

	// Shard restriction (per-execution state, set on plan copies by the
	// sharded fan-out; always zero in cached plans): when ShardCount > 1 the
	// relational step at index ShardStep — the subquery's delta read — only
	// admits rows whose ShardKeyCol hashes into the bucket span
	// [Shard, Shard+ShardSpan), so the tasks evaluating this subquery cover
	// disjoint slices of the delta and their union covers it exactly. The
	// adaptive fan-out sizes the span: one bucket per task at full fan-out,
	// wider spans when the live delta statistics call for fewer tasks.
	Shard       int
	ShardSpan   int
	ShardCount  int
	ShardStep   int
	ShardKeyCol int
}

// inShard reports whether row belongs to the plan's delta bucket span.
func (p *Plan) inShard(row []storage.Value) bool {
	s := storage.ShardOf(row[p.ShardKeyCol], p.ShardCount)
	return s >= p.Shard && s < p.Shard+p.ShardSpan
}

// SourceRel resolves the relation a relational step reads right now.
func SourceRel(cat *storage.Catalog, pred storage.PredID, src ir.Source) *storage.Relation {
	p := cat.Pred(pred)
	if src == ir.SrcDelta {
		return p.DeltaKnown
	}
	return p.Derived
}

// BuildPlan compiles the SPJ's current atom order into a Plan. It returns an
// error if the order violates binding constraints (builtin inputs or negated
// atoms unbound when reached) — compiled backends rely on this as their
// soundness check, and the optimizer never produces illegal orders.
func BuildPlan(spj *ir.SPJOp, cat *storage.Catalog) (*Plan, error) {
	p := &Plan{
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
			// Probe selection. Registration is checked on Derived (index
			// registrations are identical across a predicate's three
			// relations and the Derived pointer is never swapped), so plan
			// building is safe on the asynchronous compile thread while the
			// interpreter runs.
			selectProbe(&st, cat.Pred(a.Pred).Derived)
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

// selectProbe upgrades a scan step to the best probe registered on idxRel:
// the widest composite index fully covered by the step's const/var equality
// checks, else the first single-column indexed check. Consumed checks move
// into the probe key; the rest stay row filters. The check slice is replaced,
// never truncated in place, so the step may alias a cached plan's slice
// (bindPlan's rebind-time upgrade runs on step copies sharing backing
// arrays). Steps that are already probes are left alone.
func selectProbe(st *Step, idxRel *storage.Relation) {
	// No equality checks means nothing to probe on — the common fast-out
	// for bindPlan's per-rebind upgrade attempt.
	if st.Kind != StepScan || len(st.Checks) == 0 {
		return
	}
	if comp := chooseComposite(idxRel, st.Checks); comp != nil {
		st.Kind = StepProbeN
		st.ProbeCol = -1
		st.ProbeCols = comp.cols
		st.ProbeKeys = comp.keys
		st.Checks = comp.rest
		return
	}
	for ci, ck := range st.Checks {
		if ck.Mode == CheckSameRow || !idxRel.HasIndex(ck.Col) {
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

// demoteProbe converts a probe step back into the scan it was selected
// from, restoring the consumed probe-key check(s), so a subsequent
// selectProbe can pick whatever access path the rebind target supports.
// Fresh slices only — the step may alias a cached plan's slices.
func demoteProbe(st *Step) {
	switch st.Kind {
	case StepProbe:
		checks := make([]ColCheck, 0, len(st.Checks)+1)
		checks = append(checks, st.Checks...)
		checks = append(checks, probeKeyCheck(st.ProbeCol, st.ProbeKey))
		st.Checks = checks
		st.ProbeCol = -1
		st.ProbeKey = TmplElem{}
	case StepProbeN:
		checks := make([]ColCheck, 0, len(st.Checks)+len(st.ProbeCols))
		checks = append(checks, st.Checks...)
		for i, c := range st.ProbeCols {
			checks = append(checks, probeKeyCheck(c, st.ProbeKeys[i]))
		}
		st.Checks = checks
		st.ProbeCols = nil
		st.ProbeKeys = nil
	default:
		return
	}
	st.Kind = StepScan
}

// probeKeyCheck is the inverse of selectProbe's key consumption: the
// equality filter a probe key encodes.
func probeKeyCheck(col int, k TmplElem) ColCheck {
	if k.IsConst {
		return ColCheck{Col: col, Mode: CheckConst, Const: k.Const}
	}
	return ColCheck{Col: col, Mode: CheckVar, Var: k.Var}
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

// chooseComposite finds the widest registered composite index whose columns
// are all covered by const/var equality checks.
func chooseComposite(rel *storage.Relation, checks []ColCheck) *compositeChoice {
	sets := rel.CompositeIndexes()
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
	// One tuple buffer serves every membership test: a step is done with it
	// before the next step runs.
	var tuple []storage.Value
	for i := range p.Steps {
		if n := len(p.Steps[i].Tmpl); n > len(tuple) {
			tuple = make([]storage.Value, n)
		}
	}
	var rec func(i int)
	rec = func(i int) {
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
		switch st.Kind {
		case StepScan, StepProbe, StepProbeN:
			rel := SourceRel(cat, st.Pred, st.Src)
			// Poll cancellation/yield in the two outermost loops: the outer
			// one alone is not enough when a tiny delta drives a huge inner
			// cartesian product.
			checkCancel := i <= 1 && p.Cancel != nil
			checkYield := i <= 1 && p.Yield != nil
			// Shard restriction on the delta step: served from the
			// incrementally maintained bucket lists when the relation's
			// partition matches the task layout (the scan fast path below),
			// otherwise enforced row-by-row here.
			shardFilter := p.ShardCount > 1 && i == p.ShardStep
			match := func(row []storage.Value) {
				if shardFilter && !p.inShard(row) {
					return
				}
				for _, ck := range st.Checks {
					switch ck.Mode {
					case CheckConst:
						if row[ck.Col] != ck.Const {
							return
						}
					case CheckVar:
						if row[ck.Col] != bind[ck.Var] {
							return
						}
					case CheckSameRow:
						if row[ck.Col] != row[ck.Other] {
							return
						}
					}
				}
				for _, b := range st.Binds {
					bind[b.Var] = row[b.Col]
				}
				rec(i + 1)
			}
			stop := func() bool {
				if p.Yielded || (checkCancel && p.Cancel()) {
					return true
				}
				if checkYield && p.Yield() {
					p.Yielded = true
					return true
				}
				return false
			}
			// Physically sharded relations serve probes and scans bucket-
			// locally: row ids are meaningless to the parent, and a shard-
			// restricted step whose layout matches the partition narrows to
			// exactly its bucket span — no per-row hash.
			if subs := rel.PhysSubs(); subs != nil {
				lo, hi := 0, len(subs)
				if shardFilter {
					if sc, col := rel.ShardConfig(); sc == p.ShardCount && col == p.ShardKeyCol {
						lo, hi = p.Shard, p.Shard+p.ShardSpan
						shardFilter = false
					}
				}
				switch st.Kind {
				case StepProbe:
					key := st.ProbeKey.resolve(bind)
					// A probe on the shard key column routes to exactly one
					// bucket — no reason to touch the other buckets' indexes
					// (and a bucket outside the task's span holds nothing
					// this task may emit, hence the intersection).
					plo, phi := rel.ProbeSpan(st.ProbeCol, key)
					lo, hi = max(lo, plo), min(hi, phi)
					for s := lo; s < hi; s++ {
						sub := subs[s]
						rows, ok := sub.Probe(st.ProbeCol, key)
						if !ok {
							sub.Each(func(row []storage.Value) bool {
								if stop() {
									return false
								}
								if row[st.ProbeCol] == key {
									match(row)
								}
								return true
							})
							continue
						}
						for ri := rows.First(); ri >= 0; ri = rows.Next(ri) {
							if stop() {
								return
							}
							match(sub.Row(ri))
						}
					}
				case StepProbeN:
					vals := make([]storage.Value, len(st.ProbeKeys))
					for ki, k := range st.ProbeKeys {
						vals[ki] = k.resolve(bind)
					}
					// As above: a composite probe covering the shard key
					// column routes to one bucket.
					plo, phi := rel.ProbeSpanComposite(st.ProbeCols, vals)
					lo, hi = max(lo, plo), min(hi, phi)
					for s := lo; s < hi; s++ {
						sub := subs[s]
						rows, ok := sub.ProbeComposite(st.ProbeCols, vals)
						if !ok {
							sub.Each(func(row []storage.Value) bool {
								if stop() {
									return false
								}
								for ci, c := range st.ProbeCols {
									if row[c] != vals[ci] {
										return true
									}
								}
								match(row)
								return true
							})
							continue
						}
						for ri := rows.First(); ri >= 0; ri = rows.Next(ri) {
							if stop() {
								return
							}
							match(sub.Row(ri))
						}
					}
				default:
					rel.EachShardRange(lo, hi, func(row []storage.Value) bool {
						if stop() {
							return false
						}
						match(row)
						return true
					})
				}
				return
			}
			if st.Kind == StepProbe {
				key := st.ProbeKey.resolve(bind)
				rows, ok := rel.Probe(st.ProbeCol, key)
				if !ok {
					// Index vanished (should not happen); degrade to scan.
					rel.Each(func(row []storage.Value) bool {
						if stop() {
							return false
						}
						if row[st.ProbeCol] == key {
							match(row)
						}
						return true
					})
					return
				}
				for ri := rows.First(); ri >= 0; ri = rows.Next(ri) {
					if stop() {
						return
					}
					match(rel.Row(ri))
				}
				return
			}
			if st.Kind == StepProbeN {
				vals := make([]storage.Value, len(st.ProbeKeys))
				for ki, k := range st.ProbeKeys {
					vals[ki] = k.resolve(bind)
				}
				rows, ok := rel.ProbeComposite(st.ProbeCols, vals)
				if !ok {
					// Composite index missing at runtime: filtered scan.
					rel.Each(func(row []storage.Value) bool {
						if stop() {
							return false
						}
						for ci, c := range st.ProbeCols {
							if row[c] != vals[ci] {
								return true
							}
						}
						match(row)
						return true
					})
					return
				}
				for ri := rows.First(); ri >= 0; ri = rows.Next(ri) {
					if stop() {
						return
					}
					match(rel.Row(ri))
				}
				return
			}
			if shardFilter {
				if sc, col := rel.ShardConfig(); sc == p.ShardCount && col == p.ShardKeyCol {
					// Bucket lists are exact for this layout: iterate only
					// this task's span and skip the per-row hash.
					shardFilter = false
					rel.EachShardRange(p.Shard, p.Shard+p.ShardSpan, func(row []storage.Value) bool {
						if stop() {
							return false
						}
						match(row)
						return true
					})
					return
				}
			}
			rel.Each(func(row []storage.Value) bool {
				if stop() {
					return false
				}
				match(row)
				return true
			})

		case StepNegCheck, StepMember:
			rel := SourceRel(cat, st.Pred, st.Src)
			t := tuple[:len(st.Tmpl)]
			for ti, tm := range st.Tmpl {
				t[ti] = tm.resolve(bind)
			}
			if rel.Contains(t) == (st.Kind == StepMember) {
				rec(i + 1)
			}

		case StepBuiltin:
			vals := make([]storage.Value, len(st.Args))
			for vi, a := range st.Args {
				if st.Out == vi {
					continue
				}
				vals[vi] = a.resolve(bind)
			}
			if st.Out < 0 {
				if eval.Check(st.Builtin, vals) {
					rec(i + 1)
				}
				return
			}
			v, ok := eval.Solve(st.Builtin, vals, st.Out)
			if !ok {
				return
			}
			bind[st.OutVar] = v
			rec(i + 1)
		}
	}
	rec(0)
}
