// Delete-oracle differential harness: insert/delete batch sequences applied
// through the streaming API (Program.Apply — counting + DRed incremental
// maintenance with a cold-recompute fallback) must leave the fixpoint
// byte-equal to a recompute-from-scratch oracle over the net surviving
// facts, across the execution-mode × JIT matrix. The oracle is the
// definition of deletion correctness; any divergence — an under-deleted
// zombie, an over-deleted tuple the rederivation round missed, a count
// mishandled by a layout transition — is pinned to one configuration and
// one batch.
package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/interp"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

// streamOp is one operation of a transaction step: assert or retract tuple t
// in base relation rel.
type streamOp struct {
	rel string
	t   [2]int32
	del bool
}

func ins(rel string, a, b int32) streamOp { return streamOp{rel: rel, t: [2]int32{a, b}} }
func del(rel string, a, b int32) streamOp { return streamOp{rel: rel, t: [2]int32{a, b}, del: true} }

// streamScenario is one workload of the delete-oracle matrix: a rules-only
// program builder (the same builder serves the incremental program and every
// oracle rebuild) plus a deterministic batch sequence.
type streamScenario struct {
	name  string
	build func() *core.Program
	steps [][]streamOp
	// bases names the binary ground relations, for the fuzzer to draw
	// operations on.
	bases []string
}

// tcRules builds the transitive-closure rules with no facts.
func tcRules() *core.Program {
	return workloads.TransitiveClosure(analysis.HandOptimized, 1, 0, 0).P
}

// cspaRules builds the CSPA rules (all five recursive rules plus the
// reflexive base rules) with no facts.
func cspaRules() *core.Program {
	return analysis.CSPA(analysis.HandOptimized, &datagen.CSPAFacts{}).P
}

// tcScenario: a chain 0→1→…→7 with chords that give some closure tuples a
// second derivation, so deletions exercise both true retraction (tuples that
// die for good) and DRed rederivation with cascades (tc(0,2) comes back from
// the chord 0→2 in the naive round; tc(0,3…) only via the seeded
// continuation).
func tcScenario() streamScenario {
	step0 := []streamOp{ins("edge", 0, 2), ins("edge", 2, 4)}
	for i := int32(0); i < 7; i++ {
		step0 = append(step0, ins("edge", i, i+1))
	}
	// Assert edge(3,4) a second time: one retraction must NOT remove it.
	step0 = append(step0, ins("edge", 3, 4))
	return streamScenario{
		name:  "TransitiveClosure",
		build: tcRules,
		bases: []string{"edge"},
		steps: [][]streamOp{
			step0,
			// edge(1,2) dies; 0 still reaches 2 via the chord. edge(3,4)
			// loses one of two assertions and must survive. A co-batched
			// insertion rides the same continuation.
			{del("edge", 1, 2), del("edge", 3, 4), ins("edge", 7, 0)},
			// Second retraction of edge(3,4) kills it; 2→4 chord keeps the
			// tail reachable. Deleting a never-asserted edge is a no-op.
			{del("edge", 3, 4), del("edge", 5, 6), del("edge", 9, 9)},
			// Delete and re-insert the same tuple in one batch: net present.
			{del("edge", 0, 2), ins("edge", 0, 2), ins("edge", 4, 6)},
		},
	}
}

// cspaScenario: a small generated graph plus two hand-planted Assign edges
// sharing a source, so retracting one leaves the reflexive VaFlow/MAlias
// facts of that source with a surviving derivation — a guaranteed
// rederivation even if the generated graph has no redundancy.
func cspaScenario() streamScenario {
	facts := datagen.CSPAGraph(20, 7)
	var step0 []streamOp
	for _, e := range facts.Assign {
		step0 = append(step0, ins("Assign", e.Src, e.Dst))
	}
	for _, e := range facts.Derefr {
		step0 = append(step0, ins("Derefr", e.Src, e.Dst))
	}
	step0 = append(step0, ins("Assign", 100, 101), ins("Assign", 100, 102))
	return streamScenario{
		name:  "CSPA",
		build: cspaRules,
		bases: []string{"Assign", "Derefr"},
		steps: [][]streamOp{
			step0,
			{del("Assign", 100, 101), ins("Derefr", 100, 101)},
			{del("Assign", facts.Assign[0].Src, facts.Assign[0].Dst), del("Derefr", 100, 101)},
			{ins("Assign", 100, 101), del("Assign", 100, 102)},
		},
	}
}

// The scenarios below are the rule shapes retraction's own plans depend on:
// each forces a different step of the candidate-driven rederive plan or of
// the reordered propagate variants.

// nonLinearTCScenario is TC with the doubly recursive rule: the head predicate
// occurs twice in the body and a third time as the staged candidate atom.
func nonLinearTCScenario() streamScenario {
	sc := tcScenario()
	sc.name = "NonLinearTC"
	sc.build = func() *core.Program {
		p := core.NewProgram()
		edge, tc := p.Relation("edge", 2), p.Relation("tc", 2)
		x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
		p.MustRule(tc.A(x, y), edge.A(x, y))
		p.MustRule(tc.A(x, y), tc.A(x, z), tc.A(z, y))
		return p
	}
	return sc
}

// triangleScenario closes a triangle with an atom that arrives fully bound
// (the membership step), and projects the middle node away so one head has
// several derivations: tri(0,2) holds through 1 and through 3.
func triangleScenario() streamScenario {
	return streamScenario{
		name:  "Triangle",
		bases: []string{"e"},
		build: func() *core.Program {
			p := core.NewProgram()
			e, tri, hub := p.Relation("e", 2), p.Relation("tri", 2), p.Relation("hub", 2)
			x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
			p.MustRule(tri.A(x, z), e.A(x, y), e.A(y, z), e.A(z, x))
			p.MustRule(hub.A(x, y), tri.A(x, z), tri.A(z, y))
			return p
		},
		steps: [][]streamOp{
			{ins("e", 0, 1), ins("e", 1, 2), ins("e", 2, 0), ins("e", 0, 3), ins("e", 3, 2), ins("e", 2, 4), ins("e", 4, 0)},
			{del("e", 0, 1)},                 // tri(0,2) survives through 3; tri(1,0), tri(2,1) die
			{del("e", 0, 3), ins("e", 0, 1)}, // and now through 1 again
			{del("e", 2, 0)},                 // the edge every triangle but 2→4→0 closes with
		},
	}
}

// constHeadScenario has a head with a constant and a repeated variable, so
// the candidate atom carries a constant check and a same-row check, and a
// body atom that reads it back the same way.
func constHeadScenario() streamScenario {
	return streamScenario{
		name:  "ConstHead",
		bases: []string{"e"},
		build: func() *core.Program {
			p := core.NewProgram()
			e, loop, out := p.Relation("e", 2), p.Relation("loop", 3), p.Relation("out", 2)
			x, y := core.NewVar("x"), core.NewVar("y")
			p.MustRule(loop.A(x, x, 7), e.A(x, y), e.A(y, x))
			p.MustRule(out.A(x, y), loop.A(x, x, 7), e.A(x, y))
			return p
		},
		steps: [][]streamOp{
			{ins("e", 0, 1), ins("e", 1, 0), ins("e", 0, 2), ins("e", 2, 0), ins("e", 2, 3)},
			{del("e", 0, 1)}, // loop(0,0,7) survives through 2; loop(1,1,7) dies
			{del("e", 2, 0), ins("e", 3, 2)},
			{del("e", 0, 2), del("e", 1, 0)},
		},
	}
}

// guardScenario carries a comparison in every rule, which reordering must
// re-place after the atoms that bind it: up is reachability along increasing
// edges only.
func guardScenario() streamScenario {
	return streamScenario{
		name:  "BuiltinGuard",
		bases: []string{"e"},
		build: func() *core.Program {
			p := core.NewProgram()
			e, up := p.Relation("e", 2), p.Relation("up", 2)
			x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
			p.MustRule(up.A(x, y), e.A(x, y), core.Lt(x, y))
			p.MustRule(up.A(x, y), up.A(x, z), e.A(z, y), core.Lt(z, y))
			return p
		},
		steps: [][]streamOp{
			{ins("e", 0, 1), ins("e", 1, 3), ins("e", 0, 2), ins("e", 2, 3), ins("e", 3, 1), ins("e", 3, 5), ins("e", 5, 4)},
			{del("e", 1, 3)}, // up(0,3) survives through 2
			{del("e", 2, 3), ins("e", 1, 4), ins("e", 4, 5)},
			{del("e", 0, 1), del("e", 3, 5)},
		},
	}
}

// cycleScenario is mutual recursion whose derived facts support each other
// in a cycle: ra(1) → rb(2) → rc(3) → ra(1), entered from outside through
// entry. Once the last entry is retracted the whole cycle must go although
// every member still has a derivation from another member — which is why the
// maintenance scheme is delete-and-REderive: asking of each over-delete
// candidate whether one other derivation survives would keep the cycle
// alive; only a backward search for a proof that avoids the doomed set
// could prune here.
func cycleScenario() streamScenario {
	return streamScenario{
		name:  "CyclicSupport",
		bases: []string{"entry", "ab", "bc", "ca"},
		build: func() *core.Program {
			p := core.NewProgram()
			entry, ab, bc, ca := p.Relation("entry", 2), p.Relation("ab", 2), p.Relation("bc", 2), p.Relation("ca", 2)
			ra, rb, rc := p.Relation("ra", 1), p.Relation("rb", 1), p.Relation("rc", 1)
			x, y := core.NewVar("x"), core.NewVar("y")
			p.MustRule(ra.A(y), entry.A(x, y))
			p.MustRule(ra.A(y), rc.A(x), ca.A(x, y))
			p.MustRule(rb.A(y), ra.A(x), ab.A(x, y))
			p.MustRule(rc.A(y), rb.A(x), bc.A(x, y))
			return p
		},
		steps: [][]streamOp{
			{ins("entry", 0, 1), ins("entry", 5, 1), ins("ab", 1, 2), ins("bc", 2, 3), ins("ca", 3, 1)},
			{del("entry", 0, 1)}, // ra(1) is rederived from the second entry
			{del("entry", 5, 1)}, // no entry left: the cycle supports only itself
			{ins("entry", 0, 1)},
		},
	}
}

// streamScenarios is the delete-oracle matrix's workload axis, and the set
// FuzzRetraction draws its program from.
func streamScenarios() []streamScenario {
	return []streamScenario{
		tcScenario(), cspaScenario(), nonLinearTCScenario(), triangleScenario(),
		constHeadScenario(), guardScenario(), cycleScenario(),
	}
}

// oracleSnapshots replays the batch sequence against a net-assertion
// multiset and recomputes every step's fixpoint from scratch with the
// sequential baseline engine.
func oracleSnapshots(t *testing.T, sc streamScenario) []map[string][]string {
	t.Helper()
	net := make(map[string]map[[2]int32]int)
	out := make([]map[string][]string, len(sc.steps))
	for si, step := range sc.steps {
		// Deletions apply before insertions — Tx semantics.
		for _, op := range step {
			if !op.del {
				continue
			}
			if m := net[op.rel]; m[op.t] > 0 {
				m[op.t]--
			}
		}
		for _, op := range step {
			if op.del {
				continue
			}
			m := net[op.rel]
			if m == nil {
				m = make(map[[2]int32]int)
				net[op.rel] = m
			}
			m[op.t]++
		}
		p := sc.build()
		for rel, m := range net {
			r := p.Relation(rel, 2)
			for tu, c := range m {
				if c > 0 {
					r.FactTuple([]storage.Value{tu[0], tu[1]})
				}
			}
		}
		if _, err := p.Run(core.Options{}); err != nil {
			t.Fatalf("%s oracle step %d: %v", sc.name, si, err)
		}
		out[si] = snapshotAll(p)
	}
	return out
}

func toTx(t *testing.T, p *core.Program, step []streamOp) *core.Tx {
	t.Helper()
	tx := p.NewTx()
	for _, op := range step {
		r := p.Relation(op.rel, 2)
		if op.del {
			tx.DeleteTuple(r, []storage.Value{op.t[0], op.t[1]})
		} else {
			tx.InsertTuple(r, []storage.Value{op.t[0], op.t[1]})
		}
	}
	return tx
}

// deleteOracleModes is the shared exec-mode axis plus four cells that sweep
// the fan-out decision under retraction: a low threshold that mixes fanned-out
// and sequential iterations within one batch, and the 8-shard / 2-worker
// geometry (more buckets than workers, as in the skew benchmarks), once
// selected by Shards and once by AdaptiveFanout's 8-shard default. The cell
// names are stable test IDs; the "-steal" pair keeps the names of the
// geometry cells that work stealing once targeted.
var deleteOracleModes = append(append([]execMode(nil), execModes...),
	execMode{"adaptive", func(o *core.Options) { o.Shards = 4; o.FanoutThreshold = 8 }, false},
	// Threshold 2 runs CyclicSupport's one-row deltas sequentially, so this
	// cell's pool use is checked only on the scenarios whose deltas grow.
	execMode{"adaptive-pool", func(o *core.Options) {
		o.Shards = 4
		o.Workers = 4
		o.FanoutThreshold = 2
	}, false},
	execMode{"sharded-steal", func(o *core.Options) {
		o.Shards = 8
		o.Workers = 2
		o.FanoutThreshold = 1
		o.Histograms = true
	}, true},
	execMode{"adaptive-steal", func(o *core.Options) {
		o.AdaptiveFanout = true
		o.Workers = 2
		o.FanoutThreshold = 1
		o.Histograms = true
	}, true},
)

// TestDeleteOracleMatrix is the acceptance matrix: every execution mode,
// with and without the JIT, applies each scenario's batch sequence
// incrementally and must match the recompute oracle byte-for-byte after
// every batch. The first batch is the cold bootstrap; every later batch —
// deletions included — must take the incremental path, with the DRed
// counters proving retraction and rederivation actually happened.
func TestDeleteOracleMatrix(t *testing.T) {
	for _, sc := range streamScenarios() {
		want := oracleSnapshots(t, sc)
		for _, mode := range deleteOracleModes {
			for _, withJIT := range []bool{false, true} {
				// With the JIT the cell also runs indexed, so retraction's
				// probe-driven plans and its scan-only ones are both covered.
				name := fmt.Sprintf("%s/%s/jit=%v", sc.name, mode.name, withJIT)
				t.Run(name, func(t *testing.T) {
					opts := core.Options{Indexed: withJIT}
					mode.set(&opts)
					if withJIT {
						opts.JIT = jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
					}
					p := sc.build()
					var retracted, rederived, merged int64
					for si, step := range sc.steps {
						res, err := p.Apply(toTx(t, p, step), opts)
						if err != nil {
							t.Fatalf("step %d: %v", si, err)
						}
						if si == 0 && !res.Cold {
							t.Fatalf("bootstrap batch claimed the incremental path")
						}
						if si > 0 && res.Cold {
							t.Fatalf("step %d fell back to cold recompute on a monotone program", si)
						}
						diffSnapshots(t, fmt.Sprintf("%s step %d", name, si), want[si], snapshotAll(p))
						retracted += res.Interp.Retracted
						rederived += res.Interp.Rederived
						merged += res.Interp.MergeTasks
					}
					if mode.pooled && merged == 0 {
						t.Error("pooled cell: no batch folded a worker buffer (MergeTasks = 0)")
					}
					if retracted == 0 {
						t.Error("no batch reported Stats.Retracted > 0")
					}
					if rederived == 0 {
						t.Error("no batch reported Stats.Rederived > 0")
					}
				})
			}
		}
	}
}

// TestApplyColdFallbacks pins the demotions: Naive mode and non-monotone
// programs (negation) must refuse the incremental path and still match the
// oracle through recompute.
func TestApplyColdFallbacks(t *testing.T) {
	t.Run("naive", func(t *testing.T) {
		sc := tcScenario()
		want := oracleSnapshots(t, sc)
		p := sc.build()
		for si, step := range sc.steps {
			res, err := p.Apply(toTx(t, p, step), core.Options{Naive: true})
			if err != nil {
				t.Fatalf("step %d: %v", si, err)
			}
			if !res.Cold {
				t.Fatalf("step %d: Naive mode took the incremental path", si)
			}
			diffSnapshots(t, fmt.Sprintf("naive step %d", si), want[si], snapshotAll(p))
		}
	})
	t.Run("negation", func(t *testing.T) {
		// unreach(x,y) :- node(x), node(y), !tc(x,y) — stratified negation:
		// deletions can CREATE derivations, exactly what DRed's monotone
		// premise excludes.
		build := func() *core.Program {
			p := core.NewProgram()
			node := p.Relation("node", 1)
			edge := p.Relation("edge", 2)
			tc := p.Relation("tc", 2)
			unreach := p.Relation("unreach", 2)
			x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
			p.MustRule(tc.A(x, y), edge.A(x, y))
			p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
			p.MustRule(unreach.A(x, y), node.A(x), node.A(y), core.Not(tc.A(x, y)))
			return p
		}
		p := build()
		node := p.Relation("node", 1)
		edge := p.Relation("edge", 2)
		tx := p.NewTx()
		for i := 0; i < 4; i++ {
			tx.InsertTuple(node, []storage.Value{storage.Value(i)})
		}
		tx.InsertTuple(edge, []storage.Value{0, 1})
		tx.InsertTuple(edge, []storage.Value{1, 2})
		if _, err := p.Apply(tx, core.Options{}); err != nil {
			t.Fatal(err)
		}
		// Deleting edge(1,2) must CREATE unreach(0,2)/unreach(1,2) — only a
		// recompute can do that.
		tx2 := p.NewTx()
		tx2.DeleteTuple(edge, []storage.Value{1, 2})
		res, err := p.Apply(tx2, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Fatal("negation program took the incremental path")
		}
		unreach := p.Relation("unreach", 2)
		if !unreach.Contains(0, 2) || !unreach.Contains(1, 2) {
			t.Fatal("deletion did not create the negation-dependent tuples")
		}
	})
}

// TestApplyCountingSemantics pins the counting core on the public API: a
// doubly asserted fact survives one retraction, retracting a derived-only
// tuple is a no-op, and asserting an already-derived tuple keeps it alive
// after its original support is retracted (ground promotion).
func TestApplyCountingSemantics(t *testing.T) {
	p := tcRules()
	edge := p.Relation("edge", 2)
	tc := p.Relation("tc", 2)

	tx := p.NewTx()
	tx.InsertTuple(edge, []storage.Value{1, 2})
	tx.InsertTuple(edge, []storage.Value{1, 2}) // count 2
	tx.InsertTuple(edge, []storage.Value{2, 3})
	if _, err := p.Apply(tx, core.Options{}); err != nil {
		t.Fatal(err)
	}

	tx = p.NewTx()
	tx.DeleteTuple(edge, []storage.Value{1, 2}) // count 2 → 1: survives
	tx.DeleteTuple(tc, []storage.Value{1, 3})   // derived-only: no-op
	tx.DeleteTuple(edge, []storage.Value{8, 9}) // absent: no-op
	res, err := p.Apply(tx, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold {
		t.Fatal("counting batch fell back to cold recompute")
	}
	if res.Retracted != 0 {
		t.Fatalf("count-gated batch physically removed %d rows", res.Retracted)
	}
	if !edge.Contains(1, 2) || !tc.Contains(1, 3) {
		t.Fatal("doubly asserted fact (or its closure) lost after one retraction")
	}

	// Promote the derived tuple tc(1,3) to a ground fact, then retract its
	// derivation: the assertion must keep it alive.
	tx = p.NewTx()
	tx.InsertTuple(tc, []storage.Value{1, 3})
	if _, err := p.Apply(tx, core.Options{}); err != nil {
		t.Fatal(err)
	}
	tx = p.NewTx()
	tx.DeleteTuple(edge, []storage.Value{1, 2})
	if _, err := p.Apply(tx, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if edge.Contains(1, 2) {
		t.Fatal("edge(1,2) survived its final retraction")
	}
	if !tc.Contains(1, 3) {
		t.Fatal("ground-promoted tc(1,3) vanished with its old derivation")
	}
	if tc.Contains(1, 2) {
		t.Fatal("tc(1,2) not retracted")
	}
	// And retracting the assertion finally kills it.
	tx = p.NewTx()
	tx.DeleteTuple(tc, []storage.Value{1, 3})
	if _, err := p.Apply(tx, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if tc.Contains(1, 3) {
		t.Fatal("tc(1,3) survived retraction of its last assertion")
	}
}

// TestApplyInteropWithRun pins the handoff in both directions: a Run after
// incremental Applys sees exactly the net ground facts (the arena-prefix
// invariant Apply maintains is what Run's baseline rewind consumes), and an
// Apply after that Run resumes incrementally.
func TestApplyInteropWithRun(t *testing.T) {
	sc := tcScenario()
	want := oracleSnapshots(t, sc)
	p := sc.build()
	for si, step := range sc.steps {
		if _, err := p.Apply(toTx(t, p, step), core.Options{}); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
	}
	if _, err := p.Run(core.Options{}); err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "run-after-apply", want[len(want)-1], snapshotAll(p))

	edge := p.Relation("edge", 2)
	tx := p.NewTx()
	tx.DeleteTuple(edge, []storage.Value{6, 7})
	res, err := p.Apply(tx, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold {
		t.Fatal("Apply after Run fell back to cold recompute")
	}
	if res.Retracted == 0 {
		t.Fatal("retraction of a live edge removed nothing")
	}
	tc := p.Relation("tc", 2)
	if tc.Contains(6, 7) {
		t.Fatal("tc(6,7) survived retraction of its only support")
	}
}

// TestApplyTinyTimeoutLargeClosure retracts a third of a graph's edges from a
// standing closure of tens of thousands of rows under a deadline that has
// passed before the work starts. Wherever the cancellation lands — during the
// over-delete (nothing may have changed, and the same batch then applies
// incrementally), after the removal (the next Apply recomputes), or not at
// all — the next unhurried Apply must end on the recompute oracle's fixpoint.
func TestApplyTinyTimeoutLargeClosure(t *testing.T) {
	const nodes, edges = 200, 700
	opts := core.Options{Indexed: true}
	p := workloads.TransitiveClosure(analysis.HandOptimized, nodes, edges, 11).P
	edge := p.Relation("edge", 2)
	var all [][]storage.Value
	edge.Each(func(t []storage.Value) bool {
		all = append(all, append([]storage.Value(nil), t...))
		return true
	})
	if _, err := p.Run(opts); err != nil {
		t.Fatal(err)
	}
	if n := p.Relation("tc", 2).Len(); n < 30000 {
		t.Fatalf("fixture: closure has %d rows, want a large one", n)
	}
	standing := snapshotAll(p)
	batch := func() *core.Tx {
		tx := p.NewTx()
		for i := 0; i < len(all); i += 3 {
			tx.DeleteTuple(edge, all[i])
		}
		return tx
	}

	hurried := opts
	hurried.Timeout = time.Nanosecond
	_, err := p.Apply(batch(), hurried)
	switch {
	case errors.Is(err, interp.ErrCancelled):
		// Either no row has been touched yet, or the ground facts already
		// carry the batch and the fixpoint is marked for recomputation; the
		// batch asserts nothing twice, so applying it again is right in both.
		untouched := reflect.DeepEqual(standing, snapshotAll(p))
		res, err := p.Apply(batch(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cold == untouched {
			t.Errorf("cancelled with the fixpoint untouched = %v, yet the next Apply ran cold = %v", untouched, res.Cold)
		}
	case err != nil:
		t.Fatal(err)
	default:
		t.Log("Apply finished before the timer fired")
	}

	oracle := tcRules()
	for i, e := range all {
		if i%3 != 0 {
			oracle.Relation("edge", 2).FactTuple(e)
		}
	}
	if _, err := oracle.Run(core.Options{}); err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "after the unhurried Apply", snapshotAll(oracle), snapshotAll(p))
}

// TestApplySmallDeleteAllocatesLittle is the proportionality guard: deleting
// one edge whose closure is ten rows from a standing fixpoint of more than
// 50k rows allocates a fixed engine set-up plus one bit per Derived row (the
// doomed set) — under a byte per row — where a tuple or a slice header per
// row examined would be sixteen times that.
func TestApplySmallDeleteAllocatesLittle(t *testing.T) {
	p := workloads.TransitiveClosure(analysis.HandOptimized, 250, 750, 42).P
	edge, tc := p.Relation("edge", 2), p.Relation("tc", 2)
	for i := int32(0); i < 10; i++ { // a chain apart from the graph
		edge.FactTuple([]storage.Value{5000 + i, 5001 + i})
	}
	opts := core.Options{Indexed: true}
	if _, err := p.Run(opts); err != nil {
		t.Fatal(err)
	}
	rows := tc.Len()
	if rows < 50000 {
		t.Fatalf("fixture: closure has %d rows, want >= 50000", rows)
	}
	apply := func(del bool) (allocated uint64, res *core.ApplyResult) {
		tx := p.NewTx()
		if del {
			tx.DeleteTuple(edge, []storage.Value{5009, 5010})
		} else {
			tx.InsertTuple(edge, []storage.Value{5009, 5010})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.Apply(tx, opts)
		runtime.ReadMemStats(&after)
		if err != nil || res.Cold {
			t.Fatalf("Apply: err = %v, Cold = %v", err, res != nil && res.Cold)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	apply(true) // first use sizes the relations' scratch
	apply(false)
	allocated, res := apply(true)
	if res.Retracted != 11 { // the edge and tc(5000..5009, 5010)
		t.Fatalf("Retracted = %d, want 11", res.Retracted)
	}
	const setup = 64 << 10
	if limit := uint64(setup + rows); allocated > limit {
		t.Errorf("deleting an 11-row closure from %d rows allocated %d B, want <= %d", rows, allocated, limit)
	}
}

// FuzzRetraction cross-checks random batch sequences against the recompute
// oracle on a program the fuzzer picks from the delete-oracle matrix's
// scenarios: operations over a small node domain keep collision — and
// therefore rederivation — frequent. The corpus seeds cover the three
// interesting regimes (sparse, dense, delete-heavy) and every program.
func FuzzRetraction(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0))
	f.Add(uint64(42), uint8(5), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(8), uint8(0))
	for prog := range streamScenarios() {
		f.Add(uint64(7+prog), uint8(4), uint8(prog))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nBatches, prog uint8) {
		scs := streamScenarios()
		sc := scs[int(prog)%len(scs)]
		batches := int(nBatches%6) + 2
		s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		next := func() uint64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		p := sc.build()
		type fact struct {
			rel string
			t   [2]int32
		}
		net := make(map[fact]int)
		for b := 0; b < batches; b++ {
			tx := p.NewTx()
			nOps := int(next()%12) + 1
			type op struct {
				fact
				del bool
			}
			var ops []op
			for i := 0; i < nOps; i++ {
				rel := sc.bases[next()%uint64(len(sc.bases))]
				a, c := int32(next()%8), int32(next()%8)
				if a == c {
					continue
				}
				ops = append(ops, op{fact{rel, [2]int32{a, c}}, next()%3 == 0})
			}
			for _, o := range ops { // deletions first: Tx semantics
				if o.del {
					tx.DeleteTuple(p.Relation(o.rel, 2), []storage.Value{o.t[0], o.t[1]})
					if net[o.fact] > 0 {
						net[o.fact]--
					}
				}
			}
			for _, o := range ops {
				if !o.del {
					tx.InsertTuple(p.Relation(o.rel, 2), []storage.Value{o.t[0], o.t[1]})
					net[o.fact]++
				}
			}
			// Threshold 1: every batch whose delta spans both buckets runs
			// on the pool (a fuzzer-picked batch may derive nothing, so
			// MergeTasks is not asserted here; the delete-oracle matrix does).
			if _, err := p.Apply(tx, core.Options{Indexed: seed%2 == 0, Shards: 2, Workers: 2, FanoutThreshold: 1}); err != nil {
				t.Fatalf("%s batch %d: %v", sc.name, b, err)
			}
			oracle := sc.build()
			for f, c := range net {
				if c > 0 {
					oracle.Relation(f.rel, 2).FactTuple([]storage.Value{f.t[0], f.t[1]})
				}
			}
			if _, err := oracle.Run(core.Options{}); err != nil {
				t.Fatalf("%s oracle batch %d: %v", sc.name, b, err)
			}
			diffSnapshots(t, fmt.Sprintf("%s seed %d batch %d", sc.name, seed, b), snapshotAll(oracle), snapshotAll(p))
		}
	})
}
