package quotes

import (
	"fmt"
	"sync"

	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// Unit is a compiled executable subtree.
type Unit = func(in *interp.Interp) error

// Compiler quotes, type-checks, and lowers IROp subtrees. A fresh Compiler
// is "cold": its first Splice bootstraps internal state (frame pool plus a
// self-check compilation of a canonical quote). Reusing a Compiler is "warm"
// — the distinction Fig 5 measures. Under asynchronous compilation the
// bootstrap runs its self-check unit on the compile goroutine while the
// interpreter runs spliced units, so the frame pool is a sync.Pool.
type Compiler struct {
	warmed bool
	frames sync.Pool // of *frame
}

// NewCompiler returns a cold compiler instance.
func NewCompiler() *Compiler { return &Compiler{} }

// Name identifies the backend.
func (*Compiler) Name() string { return "quotes" }

// Warmed reports whether the bootstrap self-check has run.
func (c *Compiler) Warmed() bool { return c.warmed }

// frame is the runtime register file of lowered code. buf is transient
// tuple scratch (truncated to zero by each user); vals is composite-probe
// key scratch with stack discipline, because probe keys live past the
// descent into inner levels.
type frame struct {
	in   *interp.Interp
	rows [][]storage.Value
	bind []storage.Value
	buf  []storage.Value
	vals []storage.Value
}

type exec func(f *frame) error

// Compile quotes op (stage 1), type-checks the quote (stage 2), and lowers
// it to an executable (stage 3). When snippet is true, only op's own control
// structure is staged and each child becomes a continuation splice back into
// the interpreter.
func (c *Compiler) Compile(op ir.Op, cat *storage.Catalog, snippet bool) (Unit, error) {
	if !c.warmed {
		if err := c.bootstrap(cat); err != nil {
			return nil, fmt.Errorf("quotes: bootstrap failed: %w", err)
		}
	}
	q, maxVars, maxLevels, err := Quote(op, cat, snippet)
	if err != nil {
		return nil, err
	}
	return c.Splice(q, cat, maxVars, maxLevels)
}

// Splice type-checks and lowers a quote into an executable unit.
func (c *Compiler) Splice(q Expr, cat *storage.Catalog, numVars, numLevels int) (Unit, error) {
	if err := typecheck(q, &env{cat: cat, levelArity: map[int]int{}, vars: map[int32]bool{}}); err != nil {
		return nil, err
	}
	body, err := c.lower(q, cat)
	if err != nil {
		return nil, err
	}
	return func(in *interp.Interp) error {
		f := c.getFrame(numVars, numLevels)
		f.in = in
		err := body(f)
		c.putFrame(f)
		return err
	}, nil
}

func (c *Compiler) getFrame(numVars, numLevels int) *frame {
	if f, ok := c.frames.Get().(*frame); ok {
		if cap(f.bind) < numVars {
			f.bind = make([]storage.Value, numVars)
		}
		f.bind = f.bind[:cap(f.bind)]
		for i := range f.bind {
			f.bind[i] = 0
		}
		if cap(f.rows) < numLevels {
			f.rows = make([][]storage.Value, numLevels)
		}
		f.rows = f.rows[:cap(f.rows)]
		f.vals = f.vals[:0]
		return f
	}
	return &frame{
		rows: make([][]storage.Value, numLevels),
		bind: make([]storage.Value, numVars),
		buf:  make([]storage.Value, 0, 16),
		vals: make([]storage.Value, 0, 8),
	}
}

func (c *Compiler) putFrame(f *frame) {
	f.in = nil
	c.frames.Put(f)
}

// bootstrap runs the compiler over a canonical self-check quote: an
// intentionally ill-typed quote that must be rejected, then a well-typed one
// that must lower and run. This is the cold-start cost a fresh compiler
// instance pays (Fig 5's cold bars).
func (c *Compiler) bootstrap(cat *storage.Catalog) error {
	scratch := storage.NewCatalog()
	p := scratch.Declare("__quotes_selfcheck", 1)
	bad := EmitE{Sink: p, Elems: []Expr{VarRef{Var: 0}}} // v0 unbound: must fail
	if err := typecheck(bad, &env{cat: scratch, levelArity: map[int]int{}, vars: map[int32]bool{}}); err == nil {
		return fmt.Errorf("self-check: unsound quote was accepted")
	}
	good := SeqE{Body: []Expr{
		BindE{Var: 0, Val: ConstE{V: 1}, Body: EmitE{Sink: p, Elems: []Expr{VarRef{Var: 0}}}},
	}}
	unit, err := c.spliceRaw(good, scratch, 1, 0)
	if err != nil {
		return err
	}
	in := interp.New(scratch, nil)
	if err := unit(in); err != nil {
		return err
	}
	scratch.Pred(p).SwapClear()
	if scratch.Pred(p).DeltaKnown.Len() != 1 {
		return fmt.Errorf("self-check: canonical quote mis-executed")
	}
	c.warmed = true
	return nil
}

func (c *Compiler) spliceRaw(q Expr, cat *storage.Catalog, numVars, numLevels int) (Unit, error) {
	if err := typecheck(q, &env{cat: cat, levelArity: map[int]int{}, vars: map[int32]bool{}}); err != nil {
		return nil, err
	}
	body, err := c.lower(q, cat)
	if err != nil {
		return nil, err
	}
	return func(in *interp.Interp) error {
		f := c.getFrame(numVars, numLevels)
		f.in = in
		err := body(f)
		c.putFrame(f)
		return err
	}, nil
}

// lower translates a type-checked quote into closures.
func (c *Compiler) lower(expr Expr, cat *storage.Catalog) (exec, error) {
	switch n := expr.(type) {
	case SeqE:
		parts := make([]exec, len(n.Body))
		for i, s := range n.Body {
			x, err := c.lower(s, cat)
			if err != nil {
				return nil, err
			}
			parts[i] = x
		}
		return func(f *frame) error {
			for _, p := range parts {
				if err := p(f); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case ForEachE:
		body, err := c.lower(n.Body, cat)
		if err != nil {
			return nil, err
		}
		pred, src, level := n.Rel.Pred, n.Rel.Src, n.Level
		if level == 0 {
			// Outermost loop of a subquery: poll cancellation per row so
			// runaway cartesian products can be aborted.
			return func(f *frame) error {
				rel, bound := interp.SourceRel(f.in.Cat, pred, src)
				var ferr error
				rel.Scan(0, bound, func(row []storage.Value) bool {
					if f.in.Cancelled() {
						ferr = interp.ErrCancelled
						return false
					}
					f.rows[level] = row
					ferr = body(f)
					return ferr == nil
				})
				return ferr
			}, nil
		}
		return func(f *frame) error {
			rel, bound := interp.SourceRel(f.in.Cat, pred, src)
			var ferr error
			rel.Scan(0, bound, func(row []storage.Value) bool {
				f.rows[level] = row
				ferr = body(f)
				return ferr == nil
			})
			return ferr
		}, nil

	case ProbeE:
		body, err := c.lower(n.Body, cat)
		if err != nil {
			return nil, err
		}
		key, err := c.lowerVal(n.Key)
		if err != nil {
			return nil, err
		}
		pred, src, level, col := n.Rel.Pred, n.Rel.Src, n.Level, n.Col
		cols := []int{col}
		return func(f *frame) error {
			rel, bound := interp.SourceRel(f.in.Cat, pred, src)
			if src == ir.SrcDelta { // quotes run on the coordinator only
				rel.EnsureIndex(cols)
			}
			// ScanKey owns the access-path choice: the index chain, or a
			// filtered scan where the column has no index.
			var ferr error
			rel.ScanKey(0, bound, cols, []storage.Value{key(f)}, func(row []storage.Value) bool {
				f.rows[level] = row
				ferr = body(f)
				return ferr == nil
			})
			return ferr
		}, nil

	case ProbeNE:
		body, err := c.lower(n.Body, cat)
		if err != nil {
			return nil, err
		}
		keys := make([]func(f *frame) storage.Value, len(n.Keys))
		for i, k := range n.Keys {
			kv, err := c.lowerVal(k)
			if err != nil {
				return nil, err
			}
			keys[i] = kv
		}
		pred, src, level, cols := n.Rel.Pred, n.Rel.Src, n.Level, n.Cols
		return func(f *frame) error {
			rel, bound := interp.SourceRel(f.in.Cat, pred, src)
			if src == ir.SrcDelta {
				rel.EnsureIndex(cols)
			}
			// Stack discipline on the frame's key scratch: the keys live
			// past the descent into body (probe visits run per outer row),
			// so nested ProbeNE levels append after this segment.
			base := len(f.vals)
			for _, k := range keys {
				f.vals = append(f.vals, k(f))
			}
			vals := f.vals[base : base+len(keys)]
			defer func() { f.vals = f.vals[:base] }()
			var ferr error
			rel.ScanKey(0, bound, cols, vals, func(row []storage.Value) bool {
				f.rows[level] = row
				ferr = body(f)
				return ferr == nil
			})
			return ferr
		}, nil

	case IfE:
		cond, err := c.lowerCond(n.Cond, cat)
		if err != nil {
			return nil, err
		}
		then, err := c.lower(n.Then, cat)
		if err != nil {
			return nil, err
		}
		return func(f *frame) error {
			if cond(f) {
				return then(f)
			}
			return nil
		}, nil

	case BindE:
		val, err := c.lowerVal(n.Val)
		if err != nil {
			return nil, err
		}
		body, err := c.lower(n.Body, cat)
		if err != nil {
			return nil, err
		}
		v := n.Var
		return func(f *frame) error {
			f.bind[v] = val(f)
			return body(f)
		}, nil

	case SolveE:
		args := make([]func(f *frame) storage.Value, len(n.Args))
		for i, a := range n.Args {
			if i == n.Out {
				continue
			}
			av, err := c.lowerVal(a)
			if err != nil {
				return nil, err
			}
			args[i] = av
		}
		body, err := c.lower(n.Body, cat)
		if err != nil {
			return nil, err
		}
		b, out, v := n.B, n.Out, n.Var
		return func(f *frame) error {
			f.buf = f.buf[:0]
			for i, a := range args {
				if i == out {
					f.buf = append(f.buf, 0)
					continue
				}
				f.buf = append(f.buf, a(f))
			}
			val, ok := solveBuiltin(b, f.buf, out)
			if !ok {
				return nil
			}
			f.bind[v] = val
			return body(f)
		}, nil

	case EmitE:
		elems := make([]func(f *frame) storage.Value, len(n.Elems))
		for i, el := range n.Elems {
			ev, err := c.lowerVal(el)
			if err != nil {
				return nil, err
			}
			elems[i] = ev
		}
		sink := n.Sink
		return func(f *frame) error {
			f.buf = f.buf[:0]
			for _, ev := range elems {
				f.buf = append(f.buf, ev(f))
			}
			f.in.Stats.Matches++
			if f.in.Cat.Pred(sink).Emit(f.buf) {
				f.in.Stats.Derivations++
			}
			return nil
		}, nil

	case SeedE:
		preds := n.Preds
		return func(f *frame) error {
			f.in.Seed(preds)
			return nil
		}, nil

	case SwapClearE:
		preds := n.Preds
		return func(f *frame) error {
			for _, pid := range preds {
				f.in.Cat.Pred(pid).SwapClear()
			}
			return nil
		}, nil

	case LoopE:
		body, err := c.lower(n.Body, cat)
		if err != nil {
			return nil, err
		}
		preds := n.Preds
		return func(f *frame) error {
			for {
				if f.in.Cancelled() {
					return interp.ErrCancelled
				}
				if err := body(f); err != nil {
					return err
				}
				f.in.Stats.Iterations++
				if interp.DeltasEmpty(f.in.Cat, preds) {
					return nil
				}
			}
		}, nil

	case StatE:
		return func(f *frame) error {
			f.in.Stats.SPJRuns++
			return nil
		}, nil

	case SpliceInterpE:
		child := n.Child
		return func(f *frame) error {
			return f.in.Exec(child)
		}, nil

	case CallPlanE:
		spj := n.SPJ
		return func(f *frame) error {
			plan, err := interp.BuildPlan(spj, f.in.Cat)
			if err != nil {
				return err
			}
			f.in.Stats.SPJRuns++
			interp.RunPlan(plan, f.in.Cat, &f.in.Stats)
			return nil
		}, nil
	}
	return nil, fmt.Errorf("quotes: cannot lower %T", expr)
}

func (c *Compiler) lowerVal(expr Expr) (func(f *frame) storage.Value, error) {
	switch n := expr.(type) {
	case ConstE:
		v := n.V
		return func(*frame) storage.Value { return v }, nil
	case ColRef:
		level, col := n.Level, n.Col
		return func(f *frame) storage.Value { return f.rows[level][col] }, nil
	case VarRef:
		v := n.Var
		return func(f *frame) storage.Value { return f.bind[v] }, nil
	}
	return nil, fmt.Errorf("quotes: %T is not a value expression", expr)
}

func (c *Compiler) lowerCond(expr Expr, cat *storage.Catalog) (func(f *frame) bool, error) {
	switch n := expr.(type) {
	case EqE:
		l, err := c.lowerVal(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.lowerVal(n.R)
		if err != nil {
			return nil, err
		}
		return func(f *frame) bool { return l(f) == r(f) }, nil

	case NotContainsE:
		elems := make([]func(f *frame) storage.Value, len(n.Elems))
		for i, el := range n.Elems {
			ev, err := c.lowerVal(el)
			if err != nil {
				return nil, err
			}
			elems[i] = ev
		}
		pred, src := n.Rel.Pred, n.Rel.Src
		return func(f *frame) bool {
			rel, _ := interp.SourceRel(f.in.Cat, pred, src)
			f.buf = f.buf[:0]
			for _, ev := range elems {
				f.buf = append(f.buf, ev(f))
			}
			return !rel.Contains(f.buf)
		}, nil

	case BuiltinCheckE:
		args := make([]func(f *frame) storage.Value, len(n.Args))
		for i, a := range n.Args {
			av, err := c.lowerVal(a)
			if err != nil {
				return nil, err
			}
			args[i] = av
		}
		b := n.B
		return func(f *frame) bool {
			f.buf = f.buf[:0]
			for _, a := range args {
				f.buf = append(f.buf, a(f))
			}
			return checkBuiltin(b, f.buf)
		}, nil
	}
	return nil, fmt.Errorf("quotes: %T is not a condition", expr)
}
