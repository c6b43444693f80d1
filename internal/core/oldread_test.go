// Tests for semi-naive evaluation's Old reads (ir.SrcOld): variant k of a
// recursive rule reads δ at its k-th recursive atom, Old (Derived less δ) at
// the recursive atoms before it and Full after, so each body match is emitted
// once — counted exactly against a brute-force enumeration — and every
// executor, driver and layout derives what the naive oracle derives.
package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/jit"
	"carac/internal/storage"
)

// optCase is one engine configuration a test runs under.
type optCase struct {
	name string
	opts core.Options
}

// edgeSet is a base relation's facts, kept by the tests as the oracle's.
type edgeSet map[[2]int32]bool

func randomEdges(rng *rand.Rand, nodes, n int) edgeSet {
	es := edgeSet{}
	for len(es) < n {
		a, b := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
		es[[2]int32{a, b}] = true
	}
	return es
}

func (es edgeSet) sorted() [][2]int32 {
	out := make([][2]int32, 0, len(es))
	for e := range es {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1]
	})
	return out
}

func (es edgeSet) load(r *core.Relation) {
	for _, e := range es.sorted() {
		r.FactTuple([]storage.Value{e[0], e[1]})
	}
}

// threeHop builds p(x,y) :- e(x,y). p(x,w) :- p(x,y), p(y,z), p(z,w). —
// one rule with three recursive atoms, so a match can hold up to three δ
// tuples.
func threeHop(es edgeSet) (*core.Program, *core.Relation) {
	p := core.NewProgram()
	e, path := p.Relation("e", 2), p.Relation("p", 2)
	x, y, z, w := core.NewVar("x"), core.NewVar("y"), core.NewVar("z"), core.NewVar("w")
	p.MustRule(path.A(x, y), e.A(x, y))
	p.MustRule(path.A(x, w), path.A(x, y), path.A(y, z), path.A(z, w))
	es.load(e)
	return p, path
}

// threeHopMatches counts the distinct body matches of the recursive rule
// over rows: Σ over (y,z) of the rows into y times the rows out of z.
func threeHopMatches(rows [][]storage.Value) int64 {
	in, out := map[storage.Value]int64{}, map[storage.Value]int64{}
	for _, r := range rows {
		out[r[0]]++
		in[r[1]]++
	}
	var n int64
	for _, r := range rows {
		n += in[r[0]] * out[r[1]]
	}
	return n
}

// TestOldEmitsEachMatchOnce: with Old reads a run emits every body match of
// the three-atom rule exactly once — the distinct matches over the fixpoint,
// plus one emit per base fact — whichever sequential executor runs it (push,
// a lambda unit, or a fixture backend's), and whether the plan or unit was
// built in an earlier iteration than the one it runs in: the bound is read
// at every execution. Reading Full at the atoms before the delta emitted a
// match with k δ tuples k times.
func TestOldEmitsEachMatchOnce(t *testing.T) {
	es := randomEdges(rand.New(rand.NewSource(5)), 14, 22)
	for _, c := range []optCase{
		{"push", core.Options{}},
		{"push/indexed", core.Options{Indexed: true}},
		{"lambda/spj", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}},
		{"lambda/unionall", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}},
		// One unit for the whole program, compiled before the first
		// iteration and run in every one.
		{"lambda/program", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranProgram}}},
		{"irgen/spj", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranSPJ}}},
		{"bytecode/spj", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranSPJ}}},
		{"bytecode/unionall", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranUnionAll}}},
		// Unindexed: every probe takes the VM's filtered-scan path.
		{"bytecode/unindexed", core.Options{JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranUnionAll}}},
		{"quotes/unionall", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranUnionAll}}},
		{"quotes/unionrule", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranUnionRule, Snippet: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, path := threeHop(es)
			for run := 0; run < 2; run++ {
				res, err := p.Run(c.opts)
				if err != nil {
					t.Fatal(err)
				}
				var rows [][]storage.Value
				path.Each(func(r []storage.Value) bool {
					rows = append(rows, append([]storage.Value(nil), r...))
					return true
				})
				if res.Interp.Iterations < 3 {
					t.Fatalf("fixture: %d iterations, want a fixpoint of several", res.Interp.Iterations)
				}
				if c.opts.JIT.Backend != jit.BackendOff && c.opts.JIT.Granularity == jit.GranProgram && res.JIT.Compilations != 1 {
					t.Fatalf("fixture: %d compilations, want the one unit", res.JIT.Compilations)
				}
				if want := int64(len(es)) + threeHopMatches(rows); res.Interp.Matches != want {
					t.Errorf("run %d: %d matches, want %d (%d base facts and each distinct body match once)",
						run, res.Interp.Matches, want, len(es))
				}
			}
		})
	}
}

// nonLinearProgram is one of the programs the Old reads change: every one
// has a rule with two or more recursive atoms.
type nonLinearProgram struct {
	name  string
	bases []string
	out   string
	build func() *core.Program
}

func nonLinearPrograms() []nonLinearProgram {
	return []nonLinearProgram{
		{
			name: "ThreeHop", bases: []string{"e"}, out: "p",
			build: func() *core.Program {
				p, _ := threeHop(nil)
				return p
			},
		},
		{
			name: "NonLinearTC", bases: []string{"edge"}, out: "tc",
			build: func() *core.Program {
				p := core.NewProgram()
				edge, tc := p.Relation("edge", 2), p.Relation("tc", 2)
				x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
				p.MustRule(tc.A(x, y), edge.A(x, y))
				p.MustRule(tc.A(x, z), tc.A(x, y), tc.A(y, z))
				return p
			},
		},
		{
			// Same generation, linear through up/down and non-linear
			// through flat.
			name: "SameGeneration", bases: []string{"up", "flat", "down"}, out: "sg",
			build: func() *core.Program {
				p := core.NewProgram()
				up, flat, down, sg := p.Relation("up", 2), p.Relation("flat", 2), p.Relation("down", 2), p.Relation("sg", 2)
				x, y, a, b := core.NewVar("x"), core.NewVar("y"), core.NewVar("a"), core.NewVar("b")
				p.MustRule(sg.A(x, y), flat.A(x, y))
				p.MustRule(sg.A(x, y), up.A(x, a), sg.A(a, b), down.A(b, y))
				p.MustRule(sg.A(x, y), sg.A(x, a), flat.A(a, b), sg.A(b, y))
				return p
			},
		},
		{
			// Mutual recursion with three recursive atoms in one rule.
			name: "MutualThreeAtoms", bases: []string{"e", "f"}, out: "q",
			build: func() *core.Program {
				p := core.NewProgram()
				e, f, r, q := p.Relation("e", 2), p.Relation("f", 2), p.Relation("r", 2), p.Relation("q", 2)
				x, y, z, w := core.NewVar("x"), core.NewVar("y"), core.NewVar("z"), core.NewVar("w")
				p.MustRule(r.A(x, y), e.A(x, y))
				p.MustRule(q.A(x, y), f.A(x, y))
				p.MustRule(r.A(x, z), q.A(x, y), r.A(y, z))
				p.MustRule(q.A(x, w), r.A(x, y), q.A(y, z), r.A(z, w))
				return p
			},
		},
	}
}

// oracleOf runs the naive evaluator over facts and returns every relation's
// rows.
func oracleOf(t *testing.T, prog nonLinearProgram, facts map[string]edgeSet) map[string][]string {
	t.Helper()
	p := prog.build()
	for _, rel := range prog.bases {
		facts[rel].load(p.Relation(rel, 2))
	}
	if _, err := p.Run(core.Options{Naive: true}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return snapshotAll(p)
}

// oldReadConfigs are the executors and layouts a non-linear program runs
// under: the sequential ones, which all honor Old, and the pooled layouts (a
// sharded run's δ is physical and never a view of Derived, so Old is all of
// Derived there). The bytecode and quotes fixtures run only under Run.
func oldReadConfigs() []optCase {
	return []optCase{
		{"push", core.Options{Indexed: true}},
		{"lambda", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}},
		{"bytecode", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranSPJ}}},
		{"quotes", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranUnionRule}}},
		{"sharded8", core.Options{Indexed: true, Shards: 8, Workers: 2, FanoutThreshold: 1}},
		{"parallel", core.Options{Indexed: true, ParallelUnions: true, Workers: 2, FanoutThreshold: 1}},
	}
}

// TestNonLinearSemiNaiveMatrix runs each non-linear program under every
// configuration through the three drivers — Run, Apply with a mixed and an
// insert-only transaction, and Serve with IngestTx and Publish — and holds
// every result to the naive oracle.
func TestNonLinearSemiNaiveMatrix(t *testing.T) {
	for pi, prog := range nonLinearPrograms() {
		for _, c := range oldReadConfigs() {
			t.Run(prog.name+"/"+c.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(11 + pi)))
				facts := map[string]edgeSet{}
				for _, rel := range prog.bases {
					facts[rel] = randomEdges(rng, 10, 14)
				}
				// A mixed transaction: a few facts out, a few new ones in.
				mixed := func() (dels, ins map[string]edgeSet) {
					dels, ins = map[string]edgeSet{}, map[string]edgeSet{}
					for _, rel := range prog.bases {
						dels[rel], ins[rel] = edgeSet{}, edgeSet{}
						for i, e := range facts[rel].sorted() {
							if i%5 == 0 {
								dels[rel][e] = true
							}
						}
						for e := range randomEdges(rng, 12, 4) {
							ins[rel][e] = true
						}
					}
					return dels, ins
				}
				tx := func(p *core.Program, dels, ins map[string]edgeSet) *core.Tx {
					x := p.NewTx()
					for _, rel := range prog.bases {
						r := p.Relation(rel, 2)
						for _, e := range dels[rel].sorted() {
							x.DeleteTuple(r, []storage.Value{e[0], e[1]})
							delete(facts[rel], e)
						}
						for _, e := range ins[rel].sorted() {
							x.InsertTuple(r, []storage.Value{e[0], e[1]})
							facts[rel][e] = true
						}
					}
					return x
				}
				check := func(what string, got map[string][]string) {
					t.Helper()
					want := oracleOf(t, prog, facts)
					if len(want[prog.out]) == 0 {
						t.Fatalf("%s: fixture derives no %s rows", what, prog.out)
					}
					diffSnapshots(t, what, want, got)
				}

				// Run, twice: the second from the rewound baseline.
				p := prog.build()
				for _, rel := range prog.bases {
					facts[rel].load(p.Relation(rel, 2))
				}
				ground := p.Catalog().TotalDerived()
				for run := 0; run < 2; run++ {
					res, err := p.Run(c.opts)
					if err != nil {
						t.Fatal(err)
					}
					checkDerivations(t, fmt.Sprintf("Run %d", run), res, ground)
					check(fmt.Sprintf("Run %d", run), snapshotAll(p))
				}
				if c.opts.JIT.Backend.Fixture() {
					return
				}

				// Apply: a mixed transaction, then an insert-only one.
				dels, ins := mixed()
				if _, err := p.Apply(tx(p, dels, ins), c.opts); err != nil {
					t.Fatal(err)
				}
				check("Apply mixed", snapshotAll(p))
				_, ins = mixed()
				if _, err := p.Apply(tx(p, nil, ins), c.opts); err != nil {
					t.Fatal(err)
				}
				check("Apply insert-only", snapshotAll(p))

				// Serve: the first epoch, a mixed batch (a cold derivation)
				// and an insert-only one (a warm start on materialized
				// epochs), each queried by a fresh session.
				for _, materialize := range []bool{false, true} {
					sp := prog.build()
					for _, rel := range prog.bases {
						facts[rel].load(sp.Relation(rel, 2))
					}
					opts := c.opts
					opts.Materialize = materialize
					srv, err := sp.Serve(opts)
					if err != nil {
						t.Fatal(err)
					}
					query := func(what string) {
						t.Helper()
						sess, err := srv.Session()
						if err != nil {
							t.Fatal(err)
						}
						defer sess.Close()
						if _, err := sess.Query(); err != nil {
							t.Fatal(err)
						}
						got := map[string][]string{}
						for _, pd := range sess.Catalog().Preds() {
							got[pd.Name] = sessionRows(sess, sp.Relation(pd.Name, pd.Arity))
						}
						check(fmt.Sprintf("%s (materialize=%v)", what, materialize), got)
					}
					query("Serve first epoch")
					dels, ins := mixed()
					if _, err := srv.IngestTx(tx(sp, dels, ins)); err != nil {
						t.Fatal(err)
					}
					srv.Publish()
					query("Serve after a mixed batch")
					_, ins = mixed()
					if _, err := srv.IngestTx(tx(sp, nil, ins)); err != nil {
						t.Fatal(err)
					}
					srv.Publish()
					query("Serve after an insert-only batch")
				}
			})
		}
	}
}

// FuzzNonLinearSemiNaive: on fuzzer-picked facts, each non-linear program —
// two or three recursive atoms in a rule, mutual recursion — derives under
// the push executor, a lambda unit and the sharded pool exactly what the
// naive oracle derives, adding exactly the rows it counts.
func FuzzNonLinearSemiNaive(f *testing.F) {
	for prog := range nonLinearPrograms() {
		f.Add(uint64(3+prog), uint8(12), uint8(6), uint8(prog))
	}
	f.Add(uint64(99), uint8(40), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nFacts, nodes, prog uint8) {
		progs := nonLinearPrograms()
		pg := progs[int(prog)%len(progs)]
		rng := rand.New(rand.NewSource(int64(seed)))
		domain := int(nodes%10) + 2
		facts := map[string]edgeSet{}
		for _, rel := range pg.bases {
			facts[rel] = randomEdges(rng, domain, min(int(nFacts%24)+1, domain*domain))
		}
		want := oracleOf(t, pg, facts)
		for _, c := range []optCase{
			{"push", core.Options{Indexed: true}},
			{"lambda", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}},
			{"sharded", core.Options{Indexed: true, Shards: 8, Workers: 2, FanoutThreshold: 1}},
		} {
			p := pg.build()
			for _, rel := range pg.bases {
				facts[rel].load(p.Relation(rel, 2))
			}
			ground := p.Catalog().TotalDerived()
			res, err := p.Run(c.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", pg.name, c.name, err)
			}
			config := fmt.Sprintf("%s %s seed %d", pg.name, c.name, seed)
			checkDerivations(t, config, res, ground)
			diffSnapshots(t, config, want, snapshotAll(p))
		}
	})
}

// cspaMatches counts the distinct body matches of CSPA's rules (as
// analysis.CSPA lists them) over the rows p's Derived relations hold, by
// degree products: the five recursive rules, plus one match per Assign fact
// for each of the five base rules.
func cspaMatches(p *core.Program) int64 {
	out := map[string]map[storage.Value]int64{} // relation -> column 0 value -> rows
	rows := map[string][][2]storage.Value{}
	for _, name := range []string{"Assign", "Derefr", "VaFlow", "VAlias", "MAlias"} {
		out[name] = map[storage.Value]int64{}
		p.Relation(name, 2).Each(func(t []storage.Value) bool {
			out[name][t[0]]++
			rows[name] = append(rows[name], [2]storage.Value{t[0], t[1]})
			return true
		})
	}
	n := 5 * int64(len(rows["Assign"]))
	for _, r := range rows["Assign"] { // VaFlow(v1,v2) :- Assign(v1,v3), MAlias(v3,v2).
		n += out["MAlias"][r[1]]
	}
	for _, r := range rows["VaFlow"] { // VaFlow(v1,v2) :- VaFlow(v1,v3), VaFlow(v3,v2).
		n += out["VaFlow"][r[1]]
	}
	for _, r := range rows["VAlias"] { // MAlias(v1,v0) :- VAlias(v2,v3), Derefr(v3,v0), Derefr(v2,v1).
		n += out["Derefr"][r[1]] * out["Derefr"][r[0]]
	}
	for _, d := range out["VaFlow"] { // VAlias(v1,v2) :- VaFlow(v3,v2), VaFlow(v3,v1).
		n += d * d
	}
	for _, r := range rows["MAlias"] { // VAlias(v1,v2) :- VaFlow(v0,v2), MAlias(v3,v0), VaFlow(v3,v1).
		n += out["VaFlow"][r[1]] * out["VaFlow"][r[0]]
	}
	return n
}

// TestWarmApplyEmitsTheFloor: CSPA_300 under configuration E with every
// tenth Assign fact held back, then Apply-inserted. The warm continuation
// reads Old at the atoms before each variant's δ atom, as a Run does, so it
// emits each new body match once: exactly the matches over the new fixpoint
// less those over the old one. Reading Full there emitted a match with two
// δ tuples twice.
func TestWarmApplyEmitsTheFloor(t *testing.T) {
	facts := datagen.CSPAGraph(300, 42)
	var held []datagen.Edge
	kept := facts.Assign[:0:0]
	for i, e := range facts.Assign {
		if i%10 == 0 {
			held = append(held, e)
		} else {
			kept = append(kept, e)
		}
	}
	facts.Assign = kept
	optsE := core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}
	b := analysis.CSPA(analysis.HandOptimized, facts)
	if _, err := b.P.Run(optsE); err != nil {
		t.Fatal(err)
	}
	before := cspaMatches(b.P)
	tx := b.P.NewTx()
	assign := b.P.Relation("Assign", 2)
	for _, e := range held {
		tx.InsertTuple(assign, []storage.Value{e.Src, e.Dst})
	}
	res, err := b.P.Apply(tx, optsE)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold || len(held) != 18 {
		t.Fatalf("fixture: cold %v with %d held-back facts, want a warm Apply of 18", res.Cold, len(held))
	}
	if got, want := res.Interp.Matches, cspaMatches(b.P)-before; got != want {
		t.Errorf("the warm Apply emitted %d matches, want the %d new body matches", got, want)
	}
	cold := analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(300, 42))
	if _, err := cold.P.Run(optsE); err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "warm Apply against a cold Run", snapshotAll(cold.P), snapshotAll(b.P))
}

// TestPooledLambdaEmitsTheFloor: CSPA_300 under lambda units on the worker
// pool. CSPA has five loop rules, so a pooled iteration runs them as compiled
// task units rather than in place, and with a flat δ those units read Old
// below its bound like the flat Run does: they emit exactly its matches. A
// sharded run's δ is physical, never a view of Derived, so its Old is all of
// Derived (ROADMAP item 17: the OldBound rule for a physical δ) and it emits
// at least the floor.
func TestPooledLambdaEmitsTheFloor(t *testing.T) {
	flat := core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}}
	pooled := flat
	pooled.ParallelUnions, pooled.Workers, pooled.FanoutThreshold = true, 2, 1
	sharded := pooled
	sharded.Shards = 8
	run := func(opts core.Options) (*core.Result, map[string][]string) {
		t.Helper()
		b := analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(300, 42))
		res, err := b.P.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, snapshotAll(b.P)
	}
	floor, want := run(flat)
	if floor.Interp.Matches != 4314356 || floor.Interp.Derivations != 27719 {
		t.Fatalf("fixture: the flat Run reads %d matches and %d derivations, want 4314356 and 27719",
			floor.Interp.Matches, floor.Interp.Derivations)
	}
	for _, c := range []optCase{{"pooled", pooled}, {"sharded8", sharded}} {
		res, got := run(c.opts)
		if res.Interp.MergeTasks == 0 {
			t.Fatalf("%s: no iteration ran on the pool", c.name)
		}
		diffSnapshots(t, c.name, want, got)
		if res.Interp.Derivations != floor.Interp.Derivations {
			t.Errorf("%s: %d derivations, the flat Run %d", c.name, res.Interp.Derivations, floor.Interp.Derivations)
		}
		if c.opts.Shards > 1 {
			if res.Interp.Matches < floor.Interp.Matches {
				t.Errorf("%s: %d matches, under the flat Run's %d", c.name, res.Interp.Matches, floor.Interp.Matches)
			}
		} else if res.Interp.Matches != floor.Interp.Matches {
			t.Errorf("%s: %d matches, the flat Run %d", c.name, res.Interp.Matches, floor.Interp.Matches)
		}
	}
}
