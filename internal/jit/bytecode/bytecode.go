// Package bytecode implements Carac's Bytecode compilation target (paper
// §V-C2): IROp subtrees are compiled directly into instructions for a
// compact register-based virtual machine and executed as a flat program —
// no tree traversal, no per-run planning, and (deliberately, like the JVM
// bytecode backend it stands in for) no validation pass: the emitter is
// trusted and a malformed program mis-executes at runtime rather than being
// rejected at compile time. Unlike the Quotes target, compiled bytecode
// cannot splice back into the interpreter mid-node; the unit of reversal is
// throwing the whole program away and regenerating.
//
// Each subquery's nested-loop join is flattened into "levels": every
// relational atom owns an iterator register, and a failed check jumps back
// to the owning level's NEXT instruction.
package bytecode

import (
	"errors"
	"fmt"

	"carac/internal/ast"
	"carac/internal/eval"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// Unit is a compiled executable subtree.
type Unit = func(in *interp.Interp) error

// Opcode enumerates VM instructions.
type Opcode uint8

const (
	OpHalt       Opcode = iota
	OpSeed              // A = preds pool idx: interp.Interp.Seed
	OpSwapClear         // A = preds pool idx
	OpLoopBack          // A = target, B = preds pool idx: jump A while any delta nonempty
	OpSPJBegin          // statistics marker
	OpInitScan          // A = level, B = rels pool idx
	OpInitProbe         // A = level, B = rels pool idx, C = probes pool idx (one column)
	OpInitProbeN        // A = level, B = rels pool idx, C = probes pool idx (composite)
	OpNext              // A = level, C = fail target
	OpCheckConst        // A = level, B = col, C = fail target, D = constant
	OpCheckVar          // A = level, B = col, C = fail target, D = var
	OpCheckSame         // A = level, B = col, C = fail target, D = other col
	OpBind              // A = level, B = col, D = var
	OpNegCheck          // A = tmpls pool idx, B = rels pool idx, C = fail target
	OpBuiltin           // A = builtins pool idx, C = fail target
	OpEmit              // A = heads pool idx
	OpJmp               // A = target
	OpCallPlan          // A = plans pool idx (aggregation subqueries)
)

// Instr is one VM instruction; operand meaning depends on the opcode and no
// type information is carried.
type Instr struct {
	Op         Opcode
	A, B, C, D int32
}

// relRef names the relation an instruction reads; a level reads only the
// rows below SourceRel's bound, so an atom reading Old (ir.SrcOld) skips δ.
type relRef struct {
	pred storage.PredID
	src  ir.Source
}

type probeSpec struct {
	cols []int
	keys []interp.TmplElem
}

type builtinSpec struct {
	b      ast.Builtin
	args   []interp.TmplElem
	out    int32 // -1 = pure check
	outVar ast.VarID
}

type headSpec struct {
	tmpl []interp.TmplElem
	sink storage.PredID
}

// Program is a compiled VM program with its constant pools, immutable after
// compilation, and the register file its runs share. Only a sequential Run
// executes bytecode (core.Options.JIT), one program at a time on the
// interpreter's goroutine, so one register file serves every run.
type Program struct {
	Code     []Instr
	NumVars  int
	NumLevel int

	rels     []relRef
	preds    [][]storage.PredID
	probes   []probeSpec
	tmpls    [][]interp.TmplElem
	builtins []builtinSpec
	heads    []headSpec
	plans    []*interp.Plan

	st *runState // allocated by the first Run
}

// runState is the register file: variable bindings, per-level iterators,
// tuple scratch, and the probe key scratch (one slice per probe site).
type runState struct {
	bind  []storage.Value
	iters []iterState
	buf   []storage.Value
	vals  [][]storage.Value
}

func (p *Program) newState() *runState {
	st := &runState{
		bind:  make([]storage.Value, p.NumVars),
		iters: make([]iterState, p.NumLevel),
		buf:   make([]storage.Value, 0, 16),
		vals:  make([][]storage.Value, len(p.probes)),
	}
	for i := range p.probes {
		st.vals[i] = make([]storage.Value, len(p.probes[i].keys))
	}
	return st
}

// iterState is one iterator level: a cursor over the rows of one flat
// relation below a row bound, and the row the level currently stands on. The
// cursor walks an index chain (chained), or scans the rows in order, keeping
// only those whose cols hold vals when cols is set — the degraded path of a
// probe whose index is missing.
type iterState struct {
	rel     *storage.Relation
	end     int32 // rows at or past end are not read
	pos     int32 // the next row to read; -1 ends a chain
	chained bool
	chain   storage.Chain
	cols    []int
	vals    []storage.Value
	row     []storage.Value
}

// scan starts a walk of rel's rows below bound.
func (it *iterState) scan(rel *storage.Relation, bound int) {
	it.rel, it.end, it.pos = rel, int32(min(bound, rel.Len())), 0
	it.chained, it.cols = false, nil
}

// probe starts a walk of the rows of rel below bound whose cols hold vals:
// the chain of rel's index on cols, or a filtered scan where rel has none.
func (it *iterState) probe(rel *storage.Relation, bound int, cols []int, vals []storage.Value) {
	it.scan(rel, bound)
	if c, ok := rel.ProbeComposite(cols, vals); ok {
		it.chained, it.chain, it.pos = true, c, c.First()
		return
	}
	it.cols, it.vals = cols, vals
}

// next advances to the next row, reporting false when exhausted. A chain
// lists its rows in insertion order, so its first row at or past the bound
// ends it.
func (it *iterState) next() bool {
	if it.chained {
		if it.pos < 0 || it.pos >= it.end {
			return false
		}
		it.row = it.rel.Row(it.pos)
		it.pos = it.chain.Next(it.pos)
		return true
	}
	for it.pos < it.end {
		row := it.rel.Row(it.pos)
		it.pos++
		if covers(row, it.cols, it.vals) {
			it.row = row
			return true
		}
	}
	return false
}

// covers reports whether row holds vals at cols.
func covers(row []storage.Value, cols []int, vals []storage.Value) bool {
	for i, c := range cols {
		if row[c] != vals[i] {
			return false
		}
	}
	return true
}

// Run executes the program to completion.
func (p *Program) Run(in *interp.Interp) error {
	if p.st == nil {
		p.st = p.newState()
	}
	st := p.st
	bind := st.bind
	iters := st.iters
	code := p.Code
	cat := in.Cat

	pc := 0
	for {
		ins := &code[pc]
		switch ins.Op {
		case OpHalt:
			return nil

		case OpSeed:
			in.Seed(p.preds[ins.A])
			pc++

		case OpSwapClear:
			for _, pid := range p.preds[ins.A] {
				cat.Pred(pid).SwapClear()
			}
			pc++

		case OpLoopBack:
			if in.Cancelled() {
				return interp.ErrCancelled
			}
			in.Stats.Iterations++
			if interp.DeltasEmpty(cat, p.preds[ins.B]) {
				pc++
			} else {
				pc = int(ins.A)
			}

		case OpSPJBegin:
			in.Stats.SPJRuns++
			pc++

		case OpInitScan:
			r := p.rels[ins.B]
			rel, bound := interp.SourceRel(cat, r.pred, r.src)
			iters[ins.A].scan(rel, bound)
			pc++

		case OpInitProbeN, OpInitProbe:
			r := p.rels[ins.B]
			sp := &p.probes[ins.C]
			vals := st.vals[ins.C]
			for ki, k := range sp.keys {
				vals[ki] = resolveTmpl(k, bind)
			}
			rel, bound := interp.SourceRel(cat, r.pred, r.src)
			if r.src == ir.SrcDelta { // the VM runs on the coordinator only
				rel.EnsureIndex(sp.cols)
			}
			iters[ins.A].probe(rel, bound, sp.cols, vals)
			pc++

		case OpNext:
			it := &iters[ins.A]
			if ins.A == 0 && in.Cancelled() {
				return interp.ErrCancelled
			}
			if it.next() {
				pc++
			} else {
				pc = int(ins.C)
			}

		case OpCheckConst:
			if iters[ins.A].row[ins.B] != ins.D {
				pc = int(ins.C)
			} else {
				pc++
			}

		case OpCheckVar:
			if iters[ins.A].row[ins.B] != bind[ins.D] {
				pc = int(ins.C)
			} else {
				pc++
			}

		case OpCheckSame:
			row := iters[ins.A].row
			if row[ins.B] != row[ins.D] {
				pc = int(ins.C)
			} else {
				pc++
			}

		case OpBind:
			bind[ins.D] = iters[ins.A].row[ins.B]
			pc++

		case OpNegCheck:
			tmpl := p.tmpls[ins.A]
			r := p.rels[ins.B]
			rel, _ := interp.SourceRel(cat, r.pred, r.src)
			st.buf = st.buf[:0]
			for _, tm := range tmpl {
				st.buf = append(st.buf, resolveTmpl(tm, bind))
			}
			if rel.Contains(st.buf) {
				pc = int(ins.C)
			} else {
				pc++
			}

		case OpBuiltin:
			sp := &p.builtins[ins.A]
			if ok := execBuiltin(sp, bind, &st.buf); ok {
				pc++
			} else {
				pc = int(ins.C)
			}

		case OpEmit:
			h := &p.heads[ins.A]
			st.buf = st.buf[:0]
			for _, tm := range h.tmpl {
				st.buf = append(st.buf, resolveTmpl(tm, bind))
			}
			in.Stats.Matches++
			if cat.Pred(h.sink).Emit(st.buf) {
				in.Stats.Derivations++
			}
			pc++

		case OpJmp:
			pc = int(ins.A)

		case OpCallPlan:
			in.Stats.SPJRuns++
			interp.RunPlan(p.plans[ins.A], cat, &in.Stats)
			pc++

		default:
			return fmt.Errorf("bytecode: bad opcode %d at pc=%d", ins.Op, pc)
		}
	}
}

func execBuiltin(sp *builtinSpec, bind []storage.Value, scratch *[]storage.Value) bool {
	vals := (*scratch)[:0]
	for i, a := range sp.args {
		if int32(i) == sp.out {
			vals = append(vals, 0)
			continue
		}
		vals = append(vals, resolveTmpl(a, bind))
	}
	*scratch = vals
	if sp.out < 0 {
		return eval.Check(sp.b, vals)
	}
	v, ok := eval.Solve(sp.b, vals, int(sp.out))
	if !ok {
		return false
	}
	bind[sp.outVar] = v
	return true
}

func resolveTmpl(t interp.TmplElem, bind []storage.Value) storage.Value {
	if t.IsConst {
		return t.Const
	}
	return bind[t.Var]
}

// Compiler emits VM programs from IR subtrees.
type Compiler struct{}

// Name identifies the backend.
func (Compiler) Name() string { return "bytecode" }

// ErrSnippetUnsupported mirrors the paper: bytecode cannot splice
// continuations back into the interpreter; only full-subtree compilation is
// available.
var ErrSnippetUnsupported = errors.New("bytecode: snippet compilation not supported")

// Compile flattens op into a VM program and returns a Unit running it.
func (c Compiler) Compile(op ir.Op, cat *storage.Catalog, snippet bool) (Unit, error) {
	if snippet {
		return nil, ErrSnippetUnsupported
	}
	prog, err := c.CompileProgram(op, cat)
	if err != nil {
		return nil, err
	}
	return prog.Run, nil
}

// CompileProgram exposes the raw program for tests and disassembly.
func (c Compiler) CompileProgram(op ir.Op, cat *storage.Catalog) (*Program, error) {
	e := &emitter{cat: cat, prog: &Program{}}
	if err := e.emitOp(op); err != nil {
		return nil, err
	}
	e.emit(Instr{Op: OpHalt})
	e.prog.NumVars = e.maxVars
	e.prog.NumLevel = e.maxLevel
	return e.prog, nil
}

type emitter struct {
	cat      *storage.Catalog
	prog     *Program
	maxVars  int
	maxLevel int
}

func (e *emitter) emit(i Instr) int32 {
	e.prog.Code = append(e.prog.Code, i)
	return int32(len(e.prog.Code) - 1)
}

func (e *emitter) here() int32 { return int32(len(e.prog.Code)) }

func (e *emitter) addPreds(ps []storage.PredID) int32 {
	e.prog.preds = append(e.prog.preds, ps)
	return int32(len(e.prog.preds) - 1)
}

func (e *emitter) addRel(r relRef) int32 {
	e.prog.rels = append(e.prog.rels, r)
	return int32(len(e.prog.rels) - 1)
}

func (e *emitter) emitOp(op ir.Op) error {
	switch n := op.(type) {
	case *ir.ProgramOp:
		for _, ch := range n.Body {
			if err := e.emitOp(ch); err != nil {
				return err
			}
		}
		return nil
	case *ir.ScanOp:
		e.emit(Instr{Op: OpSeed, A: e.addPreds(n.Preds)})
		return nil
	case *ir.SwapClearOp:
		e.emit(Instr{Op: OpSwapClear, A: e.addPreds(n.Preds)})
		return nil
	case *ir.DoWhileOp:
		start := e.here()
		for _, ch := range n.Body {
			if err := e.emitOp(ch); err != nil {
				return err
			}
		}
		e.emit(Instr{Op: OpLoopBack, A: start, B: e.addPreds(n.Preds)})
		return nil
	case *ir.UnionAllOp:
		for _, r := range n.Rules {
			if err := e.emitOp(r); err != nil {
				return err
			}
		}
		return nil
	case *ir.UnionRuleOp:
		for _, s := range n.Subqueries {
			if err := e.emitOp(s); err != nil {
				return err
			}
		}
		return nil
	case *ir.SPJOp:
		return e.emitSPJ(n)
	}
	return fmt.Errorf("bytecode: cannot compile %T", op)
}

// emitSPJ flattens one subquery. Layout:
//
//	SPJBEGIN
//	(prelude guards, fail -> END)
//	INIT L0; N0: NEXT L0 (fail -> END); checks/binds; guards (fail -> N0)
//	INIT L1; N1: NEXT L1 (fail -> N0); ...
//	EMIT; JMP N_last (or END when no relational levels)
//	END:
func (e *emitter) emitSPJ(spj *ir.SPJOp) error {
	if spj.NumVars > e.maxVars {
		e.maxVars = spj.NumVars
	}
	plan, err := interp.BuildPlan(spj, e.cat)
	if err != nil {
		return err
	}
	e.emit(Instr{Op: OpSPJBegin})

	if plan.Agg.Kind != ast.AggNone {
		// Aggregation routes through the generic plan path.
		e.prog.plans = append(e.prog.plans, plan)
		// Replace the SPJBegin marker (RunPlan counts its own run).
		e.prog.Code[len(e.prog.Code)-1] = Instr{Op: OpCallPlan, A: int32(len(e.prog.plans) - 1)}
		return nil
	}

	var fixups []int32 // instructions whose C must become END
	var jmpEnds []int32
	level := int32(-1)
	nextPC := []int32{} // per level: address of its NEXT instruction

	curFail := func() int32 {
		if level < 0 {
			return -1 // END, patched later
		}
		return nextPC[level]
	}

	for si := range plan.Steps {
		st := &plan.Steps[si]
		switch st.Kind {
		case interp.StepScan, interp.StepProbe, interp.StepProbeN:
			level++
			if int(level)+1 > e.maxLevel {
				e.maxLevel = int(level) + 1
			}
			rel := e.addRel(relRef{pred: st.Pred, src: st.Src})
			switch st.Kind {
			case interp.StepProbe:
				e.prog.probes = append(e.prog.probes, probeSpec{cols: []int{st.ProbeCol}, keys: []interp.TmplElem{st.ProbeKey}})
				e.emit(Instr{Op: OpInitProbe, A: level, B: rel, C: int32(len(e.prog.probes) - 1)})
			case interp.StepProbeN:
				e.prog.probes = append(e.prog.probes, probeSpec{cols: st.ProbeCols, keys: st.ProbeKeys})
				e.emit(Instr{Op: OpInitProbeN, A: level, B: rel, C: int32(len(e.prog.probes) - 1)})
			default:
				e.emit(Instr{Op: OpInitScan, A: level, B: rel})
			}
			// fail target of this NEXT: previous level's NEXT or END.
			var prevFail int32 = -1
			if level > 0 {
				prevFail = nextPC[level-1]
			}
			np := e.emit(Instr{Op: OpNext, A: level, C: prevFail})
			if prevFail < 0 {
				fixups = append(fixups, np)
			}
			nextPC = append(nextPC, np)
			for _, ck := range st.Checks {
				switch ck.Mode {
				case interp.CheckConst:
					e.emit(Instr{Op: OpCheckConst, A: level, B: int32(ck.Col), C: np, D: ck.Const})
				case interp.CheckVar:
					e.emit(Instr{Op: OpCheckVar, A: level, B: int32(ck.Col), C: np, D: int32(ck.Var)})
				case interp.CheckSameRow:
					e.emit(Instr{Op: OpCheckSame, A: level, B: int32(ck.Col), C: np, D: int32(ck.Other)})
				}
			}
			for _, b := range st.Binds {
				e.emit(Instr{Op: OpBind, A: level, B: int32(b.Col), D: int32(b.Var)})
			}

		case interp.StepNegCheck:
			e.prog.tmpls = append(e.prog.tmpls, st.Tmpl)
			rel := e.addRel(relRef{pred: st.Pred, src: st.Src})
			fail := curFail()
			ip := e.emit(Instr{Op: OpNegCheck, A: int32(len(e.prog.tmpls) - 1), B: rel, C: fail})
			if fail < 0 {
				fixups = append(fixups, ip)
			}

		case interp.StepBuiltin:
			e.prog.builtins = append(e.prog.builtins, builtinSpec{
				b: st.Builtin, args: st.Args, out: int32(st.Out), outVar: st.OutVar,
			})
			fail := curFail()
			ip := e.emit(Instr{Op: OpBuiltin, A: int32(len(e.prog.builtins) - 1), C: fail})
			if fail < 0 {
				fixups = append(fixups, ip)
			}
		}
	}

	// Emit + loop back into the innermost level.
	headTmpl := make([]interp.TmplElem, len(plan.Head))
	for i, h := range plan.Head {
		headTmpl[i] = interp.TmplElem{IsConst: h.IsConst, Const: h.Const, Var: h.Var}
	}
	e.prog.heads = append(e.prog.heads, headSpec{tmpl: headTmpl, sink: plan.Sink})
	e.emit(Instr{Op: OpEmit, A: int32(len(e.prog.heads) - 1)})
	if level >= 0 {
		e.emit(Instr{Op: OpJmp, A: nextPC[level]})
	} else {
		jmpEnds = append(jmpEnds, e.emit(Instr{Op: OpJmp, A: -1}))
	}

	end := e.here()
	for _, ip := range fixups {
		e.prog.Code[ip].C = end
	}
	for _, ip := range jmpEnds {
		e.prog.Code[ip].A = end
	}
	return nil
}
