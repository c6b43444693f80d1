// Plan ↔ symbolic-form round trip. The interpreter caches no plans and
// nothing persists them; the codec stays because perf/ measures it
// (the plancache.flush_ms and load_ms probes), until the benchmark retires
// those probes. A Plan is already symbolic — steps name predicates, columns,
// template elements and access-path choices, never pointers into live
// storage — so serialization is a flat field walk. Per-execution state
// (Cancel/Yield hooks, shard restriction, Yielded) is not encoded. Decoded
// plans carry the builder's probe choices; callers must RevalidatePlan
// against the live catalog before running them, so a probe whose index is
// not registered in this process demotes to a filtered scan instead of
// assuming the old layout.
package interp

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/storage"
	"carac/internal/wire"
)

// PlanCodecVersion tags the layout below; bump on any field change so stale
// cache files invalidate instead of misdecoding. Version 2: a step may read
// ir.SrcOld, and a decoder rejects a source byte it does not know.
const PlanCodecVersion = 2

func appendTmpl(b []byte, t TmplElem) []byte {
	flag := uint8(0)
	if t.IsConst {
		flag = 1
	}
	b = wire.AppendU8(b, flag)
	b = wire.AppendI32(b, int32(t.Const))
	return wire.AppendI32(b, int32(t.Var))
}

func readTmpl(r *wire.Reader) TmplElem {
	var t TmplElem
	t.IsConst = r.U8() != 0
	t.Const = storage.Value(r.I32())
	t.Var = ast.VarID(r.I32())
	return t
}

func appendTmpls(b []byte, ts []TmplElem) []byte {
	b = wire.AppendInt(b, len(ts))
	for _, t := range ts {
		b = appendTmpl(b, t)
	}
	return b
}

func readTmpls(r *wire.Reader) []TmplElem {
	n := r.Count(9)
	if n <= 0 {
		return nil
	}
	ts := make([]TmplElem, n)
	for i := range ts {
		ts[i] = readTmpl(r)
	}
	return ts
}

// AppendPlan encodes p's symbolic form onto b. Kept because perf/ encodes
// plans through it.
func AppendPlan(b []byte, p *Plan) []byte {
	b = wire.AppendInt(b, len(p.Steps))
	for i := range p.Steps {
		st := &p.Steps[i]
		b = wire.AppendU8(b, uint8(st.Kind))
		b = wire.AppendI32(b, int32(st.Pred))
		b = wire.AppendU8(b, uint8(st.Src))
		b = wire.AppendInt(b, st.ProbeCol)
		b = appendTmpl(b, st.ProbeKey)
		b = wire.AppendInt(b, len(st.ProbeCols))
		for _, c := range st.ProbeCols {
			b = wire.AppendInt(b, c)
		}
		b = appendTmpls(b, st.ProbeKeys)
		b = wire.AppendInt(b, len(st.Checks))
		for _, ck := range st.Checks {
			b = wire.AppendInt(b, ck.Col)
			b = wire.AppendU8(b, uint8(ck.Mode))
			b = wire.AppendI32(b, int32(ck.Const))
			b = wire.AppendI32(b, int32(ck.Var))
			b = wire.AppendInt(b, ck.Other)
		}
		b = wire.AppendInt(b, len(st.Binds))
		for _, bd := range st.Binds {
			b = wire.AppendInt(b, bd.Col)
			b = wire.AppendI32(b, int32(bd.Var))
		}
		b = appendTmpls(b, st.Tmpl)
		b = wire.AppendU8(b, uint8(st.Builtin))
		b = appendTmpls(b, st.Args)
		b = wire.AppendInt(b, st.Out)
		b = wire.AppendI32(b, int32(st.OutVar))
	}
	b = wire.AppendInt(b, len(p.Head))
	for _, h := range p.Head {
		flag := uint8(0)
		if h.IsConst {
			flag = 1
		}
		b = wire.AppendU8(b, flag)
		b = wire.AppendI32(b, int32(h.Const))
		b = wire.AppendI32(b, int32(h.Var))
	}
	b = wire.AppendI32(b, int32(p.Sink))
	b = wire.AppendInt(b, p.NumVars)
	b = wire.AppendU8(b, uint8(p.Agg.Kind))
	b = wire.AppendInt(b, p.Agg.HeadPos)
	b = wire.AppendI32(b, int32(p.Agg.OverVar))
	return wire.AppendF64(b, p.EstRows)
}

// DecodePlan decodes one plan from b, returning the remaining bytes so a
// caller embedding plans in a larger stream can chain decodes. Kept because
// perf/ decodes plans through it.
func DecodePlan(b []byte) (*Plan, []byte, error) {
	r := wire.NewReader(b)
	p := &Plan{}
	nsteps := r.Count(1)
	if nsteps > 0 {
		p.Steps = make([]Step, nsteps)
	}
	for i := 0; i < nsteps; i++ {
		st := &p.Steps[i]
		st.Kind = StepKind(r.U8())
		st.Pred = storage.PredID(r.I32())
		st.Src = ir.Source(r.U8())
		if !st.Src.Valid() {
			return nil, nil, fmt.Errorf("plan decode: step %d reads unknown source %d", i, st.Src)
		}
		st.ProbeCol = r.Int()
		st.ProbeKey = readTmpl(r)
		if n := r.Count(4); n > 0 {
			st.ProbeCols = make([]int, n)
			for j := range st.ProbeCols {
				st.ProbeCols[j] = r.Int()
			}
		}
		st.ProbeKeys = readTmpls(r)
		if n := r.Count(17); n > 0 {
			st.Checks = make([]ColCheck, n)
			for j := range st.Checks {
				ck := &st.Checks[j]
				ck.Col = r.Int()
				ck.Mode = CheckMode(r.U8())
				ck.Const = storage.Value(r.I32())
				ck.Var = ast.VarID(r.I32())
				ck.Other = r.Int()
			}
		}
		if n := r.Count(8); n > 0 {
			st.Binds = make([]ColBind, n)
			for j := range st.Binds {
				st.Binds[j].Col = r.Int()
				st.Binds[j].Var = ast.VarID(r.I32())
			}
		}
		st.Tmpl = readTmpls(r)
		st.Builtin = ast.Builtin(r.U8())
		st.Args = readTmpls(r)
		st.Out = r.Int()
		st.OutVar = ast.VarID(r.I32())
	}
	if n := r.Count(9); n > 0 {
		p.Head = make([]ir.ProjElem, n)
		for i := range p.Head {
			h := &p.Head[i]
			h.IsConst = r.U8() != 0
			h.Const = storage.Value(r.I32())
			h.Var = ast.VarID(r.I32())
		}
	}
	p.Sink = storage.PredID(r.I32())
	p.NumVars = r.Int()
	p.Agg.Kind = ast.AggKind(r.U8())
	p.Agg.HeadPos = r.Int()
	p.Agg.OverVar = ast.VarID(r.I32())
	p.EstRows = r.F64()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("plan decode: %w", err)
	}
	return p, r.Rest(), nil
}

// RevalidatePlan re-selects every relational step's access path against the
// live catalog's registration for the relations the step reads: a probe
// whose index is not registered there demotes to a filtered scan (its
// consumed key check restored), and scans re-probe availability so a process
// with richer index registrations upgrades. The plan is mutated in place.
// Kept because perf/ decodes plans through it.
func RevalidatePlan(p *Plan, cat *storage.Catalog) {
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Kind == StepBuiltin {
			continue
		}
		if st.Pred < 0 || int(st.Pred) >= cat.NumPreds() {
			continue
		}
		revalidateStep(st, cat.Pred(st.Pred))
	}
}

// revalidateStep re-selects a relational step's access path against pd's
// registration for the relations the step reads: a probe whose index is not
// registered there demotes to a filtered scan, and a scan re-probes.
func revalidateStep(st *Step, pd *storage.PredicateDB) {
	role := st.Src.Role()
	switch st.Kind {
	case StepProbe:
		if !pd.IndexedColumn(role, st.ProbeCol) {
			demoteProbe(st)
		}
	case StepProbeN:
		if !pd.Indexed(role, st.ProbeCols) {
			demoteProbe(st)
		}
	}
	selectProbe(st, pd)
}

// demoteProbe converts a probe step back into the scan it was selected
// from, restoring the consumed probe-key check(s), so a subsequent
// selectProbe can pick whatever access path the catalog supports.
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
