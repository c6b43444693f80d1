package interp

import (
	"carac/internal/eval"
	"carac/internal/storage"
)

// This file implements the pull-based (Volcano-style iterator) execution
// engine for access plans. The paper's relational layer is pluggable and
// "has been integrated with a typical push-based and a pull-based engine"
// (§V-D); the push-based executor (Plan.Execute) is the default, and this
// iterator model is selectable via the engine options. Both must produce
// identical results — a differential test enforces it.

// pullNode is one operator of the iterator tree: Next advances to the next
// match of steps[0..i] and reports whether one exists.
type pullNode interface {
	// Open (re)initializes the node for the current upstream bindings.
	Open()
	// Next advances; false means exhausted.
	Next() bool
}

// rowSeg is one contiguous piece of a relational step's input: a probe's
// chain in rel, a row-id list into rel (bucket view or degraded-path filter),
// or all of rel.
type rowSeg struct {
	rel   *storage.Relation
	chain storage.Chain // probe result, when probe is set
	rows  []int32       // row-id list; nil (and probe unset) = scan all of rel
	probe bool
}

// start returns the position of the segment's first row.
func (s *rowSeg) start() int {
	if s.probe {
		return int(s.chain.First())
	}
	return 0
}

// at returns the row at position pos and the position after it; ok is false
// when pos is past the segment's end.
func (s *rowSeg) at(pos int) (row []storage.Value, after int, ok bool) {
	switch {
	case s.probe:
		if pos < 0 {
			return nil, 0, false
		}
		return s.rel.Row(int32(pos)), int(s.chain.Next(int32(pos))), true
	case s.rows != nil:
		if pos >= len(s.rows) {
			return nil, 0, false
		}
		return s.rel.Row(s.rows[pos]), pos + 1, true
	default:
		if pos >= s.rel.Len() {
			return nil, 0, false
		}
		return s.rel.Row(int32(pos)), pos + 1, true
	}
}

// SegCursor iterates a relational step's input as a sequence of segments —
// one for a flat relation, one per bucket for a physically sharded relation
// (whose per-bucket row ids are meaningless to the parent) or a bucket-span
// restriction. Reset, add the segments, then Next until it reports the end.
// The pull executor and the bytecode VM share it; its buffers are reused
// across Resets.
type SegCursor struct {
	segs    []rowSeg
	si, pos int
	ids     []int32 // backing of AddMatching's lists
}

// Reset empties the cursor for a fresh set of segments.
func (c *SegCursor) Reset() {
	c.segs, c.ids, c.si = c.segs[:0], c.ids[:0], -1
}

// AddScan adds all of rel's rows.
func (c *SegCursor) AddScan(rel *storage.Relation) { c.segs = append(c.segs, rowSeg{rel: rel}) }

// AddList adds rel's rows named by the non-empty list rows.
func (c *SegCursor) AddList(rel *storage.Relation, rows []int32) {
	c.segs = append(c.segs, rowSeg{rel: rel, rows: rows})
}

// AddChain adds a probe result on rel.
func (c *SegCursor) AddChain(rel *storage.Relation, chain storage.Chain) {
	c.segs = append(c.segs, rowSeg{rel: rel, chain: chain, probe: true})
}

// AddMatching adds rel's rows that satisfy keep — the degraded path when an
// expected index is missing at runtime.
func (c *SegCursor) AddMatching(rel *storage.Relation, keep func(row []storage.Value) bool) {
	start := len(c.ids)
	total := int32(rel.Len())
	for i := int32(0); i < total; i++ {
		if keep(rel.Row(i)) {
			c.ids = append(c.ids, i)
		}
	}
	if len(c.ids) > start {
		c.AddList(rel, c.ids[start:len(c.ids):len(c.ids)])
	}
}

// Next returns the next row, or false when the segments are exhausted.
func (c *SegCursor) Next() ([]storage.Value, bool) {
	for c.si < len(c.segs) {
		if c.si >= 0 {
			if row, after, ok := c.segs[c.si].at(c.pos); ok {
				c.pos = after
				return row, true
			}
		}
		if c.si++; c.si < len(c.segs) {
			c.pos = c.segs[c.si].start()
		}
	}
	return nil, false
}

// relPull iterates a relational step (scan or probe) under the current
// bindings, applying checks and binds.
type relPull struct {
	st   *Step
	cat  *storage.Catalog
	bind []storage.Value

	// Shard restriction for the plan's delta step (see Plan.Shard*):
	// shardCount > 1 admits only rows of buckets [shard, shard+shardSpan) —
	// served from the exact bucket lists or sub-relations when the
	// relation's partition matches the task layout (hashFilter off),
	// enforced per row otherwise.
	shard       int
	shardSpan   int
	shardCount  int
	shardKeyCol int
	hashFilter  bool

	in SegCursor
}

// Open collects the step's input segments under the current bindings.
func (r *relPull) Open() {
	r.in.Reset()
	rel := SourceRel(r.cat, r.st.Pred, r.st.Src)
	r.hashFilter = r.shardCount > 1
	subs := rel.PhysSubs()
	// Bucket range to serve: everything, narrowed to the task's span when
	// the restriction matches the relation's partition layout.
	lo, hi := 0, len(subs)
	if r.hashFilter {
		if sc, col := rel.ShardConfig(); sc == r.shardCount && col == r.shardKeyCol {
			r.hashFilter = false
			if subs != nil {
				lo, hi = r.shard, r.shard+r.shardSpan
			} else if r.st.Kind == StepScan {
				for s := r.shard; s < r.shard+r.shardSpan; s++ {
					if rows := rel.ShardRows(s); len(rows) > 0 {
						r.in.AddList(rel, rows)
					}
				}
				return
			} else {
				// Probe through the global index: bucket membership must be
				// re-checked per row (the index is not partitioned).
				r.hashFilter = true
			}
		}
	}
	switch r.st.Kind {
	case StepProbe:
		key := r.st.ProbeKey.resolve(r.bind)
		if subs != nil {
			// A probe on the shard key column routes to exactly one bucket.
			plo, phi := rel.ProbeSpan(r.st.ProbeCol, key)
			lo, hi = max(lo, plo), min(hi, phi)
			for s := lo; s < hi; s++ {
				if c, ok := subs[s].Probe(r.st.ProbeCol, key); ok {
					r.in.AddChain(subs[s], c)
				} else {
					r.in.AddMatching(subs[s], func(row []storage.Value) bool { return row[r.st.ProbeCol] == key })
				}
			}
			return
		}
		if c, ok := rel.Probe(r.st.ProbeCol, key); ok {
			r.in.AddChain(rel, c)
			return
		}
		// No index at runtime: materialize matching rows (degraded path).
		r.in.AddMatching(rel, func(row []storage.Value) bool { return row[r.st.ProbeCol] == key })
	case StepProbeN:
		vals := make([]storage.Value, len(r.st.ProbeKeys))
		for ki, k := range r.st.ProbeKeys {
			vals[ki] = k.resolve(r.bind)
		}
		covers := func(row []storage.Value) bool {
			for ci, c := range r.st.ProbeCols {
				if row[c] != vals[ci] {
					return false
				}
			}
			return true
		}
		if subs != nil {
			// As above: a composite probe covering the shard key column
			// routes to one bucket.
			plo, phi := rel.ProbeSpanComposite(r.st.ProbeCols, vals)
			lo, hi = max(lo, plo), min(hi, phi)
			for s := lo; s < hi; s++ {
				if c, ok := subs[s].ProbeComposite(r.st.ProbeCols, vals); ok {
					r.in.AddChain(subs[s], c)
				} else {
					r.in.AddMatching(subs[s], covers)
				}
			}
			return
		}
		if c, ok := rel.ProbeComposite(r.st.ProbeCols, vals); ok {
			r.in.AddChain(rel, c)
			return
		}
		r.in.AddMatching(rel, covers)
	default:
		if subs != nil {
			for s := lo; s < hi; s++ {
				if subs[s].Len() > 0 {
					r.in.AddScan(subs[s])
				}
			}
			return
		}
		r.in.AddScan(rel)
	}
}

func (r *relPull) Next() bool {
	for {
		row, ok := r.in.Next()
		if !ok {
			return false
		}
		if !r.matches(row) {
			continue
		}
		for _, b := range r.st.Binds {
			r.bind[b.Var] = row[b.Col]
		}
		return true
	}
}

func (r *relPull) matches(row []storage.Value) bool {
	if r.hashFilter {
		if s := storage.ShardOf(row[r.shardKeyCol], r.shardCount); s < r.shard || s >= r.shard+r.shardSpan {
			return false
		}
	}
	for _, ck := range r.st.Checks {
		switch ck.Mode {
		case CheckConst:
			if row[ck.Col] != ck.Const {
				return false
			}
		case CheckVar:
			if row[ck.Col] != r.bind[ck.Var] {
				return false
			}
		case CheckSameRow:
			if row[ck.Col] != row[ck.Other] {
				return false
			}
		}
	}
	return true
}

// guardPull evaluates a negation or builtin step: it yields at most one
// "row" (the guard passing) per Open.
type guardPull struct {
	st   *Step
	cat  *storage.Catalog
	bind []storage.Value
	done bool
	buf  []storage.Value
}

func (g *guardPull) Open() { g.done = false }

func (g *guardPull) Next() bool {
	if g.done {
		return false
	}
	g.done = true
	switch g.st.Kind {
	case StepNegCheck:
		rel := SourceRel(g.cat, g.st.Pred, g.st.Src)
		g.buf = g.buf[:0]
		for _, tm := range g.st.Tmpl {
			g.buf = append(g.buf, tm.resolve(g.bind))
		}
		return !rel.Contains(g.buf)
	case StepBuiltin:
		g.buf = g.buf[:0]
		for i, a := range g.st.Args {
			if i == g.st.Out {
				g.buf = append(g.buf, 0)
				continue
			}
			g.buf = append(g.buf, a.resolve(g.bind))
		}
		if g.st.Out < 0 {
			return eval.Check(g.st.Builtin, g.buf)
		}
		v, ok := eval.Solve(g.st.Builtin, g.buf, g.st.Out)
		if !ok {
			return false
		}
		g.bind[g.st.OutVar] = v
		return true
	}
	return false
}

// PullExecutor runs a plan with the iterator model: a stack of operators is
// advanced depth-first, emitting a head tuple for every full match.
type PullExecutor struct {
	plan  *Plan
	nodes []pullNode
	bind  []storage.Value
	head  []storage.Value
}

// NewPullExecutor prepares an iterator tree for the plan.
func NewPullExecutor(plan *Plan, cat *storage.Catalog) *PullExecutor {
	bind := make([]storage.Value, plan.NumVars)
	nodes := make([]pullNode, len(plan.Steps))
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if st.Kind == StepScan || st.Kind == StepProbe || st.Kind == StepProbeN {
			rp := &relPull{st: st, cat: cat, bind: bind}
			if plan.ShardCount > 1 && i == plan.ShardStep {
				rp.shard, rp.shardSpan, rp.shardCount, rp.shardKeyCol = plan.Shard, plan.ShardSpan, plan.ShardCount, plan.ShardKeyCol
			}
			nodes[i] = rp
		} else {
			nodes[i] = &guardPull{st: st, cat: cat, bind: bind}
		}
	}
	return &PullExecutor{
		plan:  plan,
		nodes: nodes,
		bind:  bind,
		head:  make([]storage.Value, len(plan.Head)),
	}
}

// Execute pulls every match, invoking emit with (head, bindings).
func (e *PullExecutor) Execute(emit func(head, bind []storage.Value)) {
	n := len(e.nodes)
	if n == 0 {
		e.project()
		emit(e.head, e.bind)
		return
	}
	for i := range e.bind {
		e.bind[i] = 0
	}
	depth := 0
	e.nodes[0].Open()
	for depth >= 0 {
		if depth <= 1 {
			if e.plan.Cancel != nil && e.plan.Cancel() {
				return
			}
			if e.plan.Yield != nil && e.plan.Yield() {
				e.plan.Yielded = true
				return
			}
		}
		if !e.nodes[depth].Next() {
			depth--
			continue
		}
		if depth == n-1 {
			e.project()
			emit(e.head, e.bind)
			continue
		}
		depth++
		e.nodes[depth].Open()
	}
}

func (e *PullExecutor) project() {
	for hi, h := range e.plan.Head {
		if h.IsConst {
			e.head[hi] = h.Const
		} else {
			e.head[hi] = e.bind[h.Var]
		}
	}
}

// RunPlanPull executes a plan with the pull engine, sinking like RunPlan.
func RunPlanPull(p *Plan, cat *storage.Catalog) int64 {
	return runPlanSink(p, cat, ExecPull)
}

// Executor selects the leaf-join execution engine (paper §V-D).
type Executor uint8

const (
	// ExecPush is the default callback-driven engine.
	ExecPush Executor = iota
	// ExecPull is the Volcano-style iterator engine.
	ExecPull
)

// String names the executor.
func (e Executor) String() string {
	if e == ExecPull {
		return "pull"
	}
	return "push"
}
