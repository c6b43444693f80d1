// Program ↔ bytes round trip for the persistent cache. A compiled Program is
// a flat instruction list plus constant pools — predicates, template
// elements, probe specs, head sinks, and the aggregation-plan pool — with no
// pointers into live storage (the VM resolves relations through the
// executing interpreter's catalog at run time), so the whole artifact
// serializes field by field. The sync.Pool of runStates is per-process
// scratch and is not encoded; a decoded Program lazily repopulates it on
// first Run exactly like a freshly compiled one.
package bytecode

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
	"carac/internal/wire"
)

// CodecVersion tags the layout below (instruction word shape + pool order);
// bump on any change so stale cache files invalidate instead of misdecoding.
const CodecVersion = 1

func appendTmplElem(b []byte, t interp.TmplElem) []byte {
	flag := uint8(0)
	if t.IsConst {
		flag = 1
	}
	b = wire.AppendU8(b, flag)
	b = wire.AppendI32(b, int32(t.Const))
	return wire.AppendI32(b, int32(t.Var))
}

func readTmplElem(r *wire.Reader) interp.TmplElem {
	var t interp.TmplElem
	t.IsConst = r.U8() != 0
	t.Const = storage.Value(r.I32())
	t.Var = ast.VarID(r.I32())
	return t
}

func appendTmplSlice(b []byte, ts []interp.TmplElem) []byte {
	b = wire.AppendInt(b, len(ts))
	for _, t := range ts {
		b = appendTmplElem(b, t)
	}
	return b
}

func readTmplSlice(r *wire.Reader) []interp.TmplElem {
	n := r.Count(9)
	if n <= 0 {
		return nil
	}
	ts := make([]interp.TmplElem, n)
	for i := range ts {
		ts[i] = readTmplElem(r)
	}
	return ts
}

// EncodeProgram serializes p. The output embeds every pool in declaration
// order; aggregation plans ride the interp plan codec.
func EncodeProgram(p *Program) []byte {
	b := wire.AppendInt(nil, len(p.Code))
	for _, in := range p.Code {
		b = wire.AppendU8(b, uint8(in.Op))
		b = wire.AppendI32(b, in.A)
		b = wire.AppendI32(b, in.B)
		b = wire.AppendI32(b, in.C)
		b = wire.AppendI32(b, in.D)
	}
	b = wire.AppendInt(b, p.NumVars)
	b = wire.AppendInt(b, p.NumLevel)
	b = wire.AppendInt(b, len(p.rels))
	for _, rr := range p.rels {
		b = wire.AppendI32(b, int32(rr.pred))
		b = wire.AppendU8(b, uint8(rr.src))
	}
	b = wire.AppendInt(b, len(p.preds))
	for _, ps := range p.preds {
		b = wire.AppendInt(b, len(ps))
		for _, pd := range ps {
			b = wire.AppendI32(b, int32(pd))
		}
	}
	b = wire.AppendInt(b, len(p.probes))
	for _, pr := range p.probes {
		b = wire.AppendI32(b, pr.col)
		b = appendTmplElem(b, pr.key)
	}
	b = wire.AppendInt(b, len(p.nprobes))
	for _, np := range p.nprobes {
		b = wire.AppendInt(b, len(np.cols))
		for _, c := range np.cols {
			b = wire.AppendInt(b, c)
		}
		b = appendTmplSlice(b, np.keys)
	}
	b = wire.AppendInt(b, len(p.tmpls))
	for _, t := range p.tmpls {
		b = appendTmplSlice(b, t)
	}
	b = wire.AppendInt(b, len(p.builtins))
	for _, bs := range p.builtins {
		b = wire.AppendU8(b, uint8(bs.b))
		b = appendTmplSlice(b, bs.args)
		b = wire.AppendI32(b, bs.out)
		b = wire.AppendI32(b, int32(bs.outVar))
	}
	b = wire.AppendInt(b, len(p.heads))
	for _, hs := range p.heads {
		b = appendTmplSlice(b, hs.tmpl)
		b = wire.AppendI32(b, int32(hs.sink))
	}
	b = wire.AppendInt(b, len(p.plans))
	for _, pl := range p.plans {
		b = interp.AppendPlan(b, pl)
	}
	return b
}

// DecodeProgram reconstructs a Program from EncodeProgram output. Any
// truncation or garbage surfaces as an error (the persistence layer treats
// it as a cache miss); the decoded program is ready to Run. Aggregation
// plans in the pool keep the builder's probe choices — the VM's OpCallPlan
// path and Plan.Execute both degrade missing indexes to filtered scans at
// run time, and callers holding a catalog can additionally
// interp.RevalidatePlan them.
func DecodeProgram(b []byte) (*Program, error) {
	r := wire.NewReader(b)
	p := &Program{}
	if n := r.Count(17); n > 0 {
		p.Code = make([]Instr, n)
		for i := range p.Code {
			in := &p.Code[i]
			in.Op = Opcode(r.U8())
			in.A = r.I32()
			in.B = r.I32()
			in.C = r.I32()
			in.D = r.I32()
		}
	}
	p.NumVars = r.Int()
	p.NumLevel = r.Int()
	if n := r.Count(5); n > 0 {
		p.rels = make([]relRef, n)
		for i := range p.rels {
			p.rels[i].pred = storage.PredID(r.I32())
			p.rels[i].src = ir.Source(r.U8())
			if !p.rels[i].src.Valid() {
				return nil, fmt.Errorf("bytecode decode: relation %d reads unknown source %d", i, p.rels[i].src)
			}
		}
	}
	if n := r.Count(4); n > 0 {
		p.preds = make([][]storage.PredID, n)
		for i := range p.preds {
			if m := r.Count(4); m > 0 {
				ps := make([]storage.PredID, m)
				for j := range ps {
					ps[j] = storage.PredID(r.I32())
				}
				p.preds[i] = ps
			}
		}
	}
	if n := r.Count(13); n > 0 {
		p.probes = make([]probeSpec, n)
		for i := range p.probes {
			p.probes[i].col = r.I32()
			p.probes[i].key = readTmplElem(r)
		}
	}
	if n := r.Count(8); n > 0 {
		p.nprobes = make([]probeNSpec, n)
		for i := range p.nprobes {
			if m := r.Count(4); m > 0 {
				cols := make([]int, m)
				for j := range cols {
					cols[j] = r.Int()
				}
				p.nprobes[i].cols = cols
			}
			p.nprobes[i].keys = readTmplSlice(r)
		}
	}
	if n := r.Count(4); n > 0 {
		p.tmpls = make([][]interp.TmplElem, n)
		for i := range p.tmpls {
			p.tmpls[i] = readTmplSlice(r)
		}
	}
	if n := r.Count(13); n > 0 {
		p.builtins = make([]builtinSpec, n)
		for i := range p.builtins {
			bs := &p.builtins[i]
			bs.b = ast.Builtin(r.U8())
			bs.args = readTmplSlice(r)
			bs.out = r.I32()
			bs.outVar = ast.VarID(r.I32())
		}
	}
	if n := r.Count(8); n > 0 {
		p.heads = make([]headSpec, n)
		for i := range p.heads {
			p.heads[i].tmpl = readTmplSlice(r)
			p.heads[i].sink = storage.PredID(r.I32())
		}
	}
	nplans := r.Count(1)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bytecode decode: %w", err)
	}
	if nplans > 0 {
		p.plans = make([]*interp.Plan, nplans)
		rest := r.Rest()
		for i := range p.plans {
			pl, tail, err := interp.DecodePlan(rest)
			if err != nil {
				return nil, fmt.Errorf("bytecode decode: plan %d: %w", i, err)
			}
			p.plans[i] = pl
			rest = tail
		}
	}
	return p, nil
}
