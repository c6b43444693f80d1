package interp

import (
	"math/rand"
	"strings"
	"testing"

	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

// runSrcPool mirrors runSrc (indexed, semi-naive) with an optional 4-way
// sharded worker pool forced to fan out every non-empty iteration, and
// returns the catalog and stats.
func runSrcPool(t *testing.T, src string, parallel bool) (*storage.Catalog, Stats) {
	t.Helper()
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	keyCols := make(map[storage.PredID]int)
	for pid, cols := range ir.JoinKeyColumns(res.Program) {
		cat.Pred(pid).BuildIndexes(cols)
		if len(cols) > 0 {
			keyCols[pid] = cols[0]
		}
	}
	in := New(cat, nil)
	if parallel {
		cat.ConfigureShardsPhysical(4, keyCols)
		in.Parallel, in.Shards, in.Workers, in.FanoutThreshold = true, 4, 4, 1
	}
	if err := in.Run(root); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cat, in.Stats
}

func catalogsEqual(t *testing.T, a, b *storage.Catalog) {
	t.Helper()
	for _, p := range a.Preds() {
		bp, ok := b.PredByName(p.Name)
		if !ok {
			t.Fatalf("predicate %s missing", p.Name)
		}
		if p.Derived.Len() != bp.Derived.Len() {
			t.Fatalf("pred %s: %d vs %d tuples", p.Name, p.Derived.Len(), bp.Derived.Len())
		}
		p.Derived.Each(func(row []storage.Value) bool {
			if !bp.Derived.Contains(row) {
				t.Fatalf("pred %s: tuple %v missing", p.Name, row)
			}
			return true
		})
	}
}

// checkPoolEqualsSequential runs src sequentially and on the pool, and wants
// the same fixpoint with the pool's merge barrier having run.
func checkPoolEqualsSequential(t *testing.T, src string) {
	t.Helper()
	seq, _ := runSrcPool(t, src, false)
	par, stats := runSrcPool(t, src, true)
	catalogsEqual(t, seq, par)
	if stats.MergeTasks == 0 {
		t.Fatal("the pool never ran: no worker buffer was folded")
	}
}

func TestParallelUnionsEqualSequential(t *testing.T) {
	// Mutual recursion gives multiple UnionAllOps per iteration to fan out.
	checkPoolEqualsSequential(t, `
.decl n(x:number)
.decl even(x:number)
.decl odd(x:number)
.decl both(x:number, y:number)
n(40).
even(0).
odd(y) :- even(x), y = x + 1, n(m), y <= m.
even(y) :- odd(x), y = x + 1, n(m), y <= m.
both(x, y) :- even(x), odd(y), y = x + 1.
`)
}

func TestParallelCSPAShape(t *testing.T) {
	src := `
.decl Assign(a:number, b:number)
.decl VaFlow(a:number, b:number)
.decl VAlias(a:number, b:number)
VaFlow(x, y) :- Assign(x, y).
VaFlow(x, y) :- VaFlow(x, z), VaFlow(z, y).
VAlias(x, y) :- VaFlow(z, x), VaFlow(z, y).
`
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		src += "Assign(" + itoa(rng.Intn(20)) + "," + itoa(rng.Intn(20)) + ").\n"
	}
	checkPoolEqualsSequential(t, src)
}

// fanoutFixture builds a physically sharded single-predicate catalog with
// delta rows landing in exactly the buckets of the given key values, and an
// Interp plus loop node ready for chooseFanout.
func fanoutFixture(t *testing.T, shards int, keys []storage.Value) (*Interp, *ir.DoWhileOp) {
	t.Helper()
	cat := storage.NewCatalog()
	id := cat.Declare("p", 2)
	cat.ConfigureShardsPhysical(shards, map[storage.PredID]int{id: 0})
	pd := cat.Pred(id)
	for i, k := range keys {
		pd.DeltaKnown.Insert([]storage.Value{k, storage.Value(i)})
	}
	in := New(cat, nil)
	in.Parallel = true
	in.Shards = shards
	in.Workers = 2
	in.FanoutThreshold = 1
	return in, &ir.DoWhileOp{Preds: []storage.PredID{id}}
}

// bucketKey finds a key value hashing into the wanted shard bucket.
func bucketKey(t *testing.T, shards, want int) storage.Value {
	t.Helper()
	for v := storage.Value(0); v < 1<<16; v++ {
		if storage.ShardOf(v, shards) == want {
			return v
		}
	}
	t.Fatalf("no key found for bucket %d/%d", want, shards)
	return 0
}

// TestFanoutClampsToOccupiedBuckets: at FanoutThreshold 1 the fan-out
// decision gives every non-empty iteration min(occupied, Shards) tasks (with
// Shards <= 4 x workers) — with eight buckets but only two occupied, two
// spans per rule, not eight spans of which six are empty but still pay task
// dispatch. An empty delta runs on the sequential path.
func TestFanoutClampsToOccupiedBuckets(t *testing.T) {
	const shards = 8
	keys := []storage.Value{bucketKey(t, shards, 2), bucketKey(t, shards, 5), bucketKey(t, shards, 5)}
	in, loop := fanoutFixture(t, shards, keys)
	if tasks := in.chooseFanout(loop); tasks != 2 {
		t.Fatalf("tasks = %d, want 2 (occupied buckets)", tasks)
	}

	var all []storage.Value
	for b := 0; b < shards; b++ {
		all = append(all, bucketKey(t, shards, b))
	}
	in2, loop2 := fanoutFixture(t, shards, all)
	if tasks := in2.chooseFanout(loop2); tasks != shards {
		t.Fatalf("all buckets occupied: tasks = %d, want %d", tasks, shards)
	}

	in3, loop3 := fanoutFixture(t, shards, nil)
	if tasks := in3.chooseFanout(loop3); tasks != 0 {
		t.Fatalf("empty delta: tasks = %d, want 0 (sequential path)", tasks)
	}
}

// cancellingYielder cancels the run from inside a subquery, at its at-th
// poll, and never asks for a yield.
type cancellingYielder struct{ at, polls int }

func (c *cancellingYielder) Enter(ir.Op, *Interp) func() error { return nil }

func (c *cancellingYielder) ShouldYield(_ ir.Op, in *Interp) bool {
	if c.polls++; c.polls == c.at {
		in.Cancel()
	}
	return false
}

// TestCancelMidPlan: a cancellation that arrives while a subquery is scanning
// stops the scan at the next row — no further polls — and the run returns
// ErrCancelled with no staged rows left behind.
func TestCancelMidPlan(t *testing.T) {
	src := ".decl edge(x:number, y:number)\n.decl tc(x:number, y:number)\n"
	for i := 0; i < 30; i++ {
		src += "edge(" + itoa(i) + "," + itoa(i+1) + ").\n"
	}
	src += "tc(x,y) :- edge(x,y).\ntc(x,y) :- tc(x,z), edge(z,y).\n"
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &cancellingYielder{at: 5}
	if err := New(cat, ctrl).Run(root); err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if ctrl.polls != ctrl.at {
		t.Fatalf("the subquery polled %d times, want it stopped at poll %d", ctrl.polls, ctrl.at)
	}
	if tc, _ := cat.PredByName("tc"); tc.Derived.Len() != 0 {
		t.Fatalf("|tc| = %d after a run cancelled in its first subquery, want 0", tc.Derived.Len())
	}
}

// TestRestrictedPlanNeedsPartition: a plan restricted to a bucket span reads
// only its buckets of a physically partitioned delta. Over a delta without
// that partition it panics: every predicate of a sharded run is partitioned
// into the run's bucket count, so anything else is a wiring bug, not a reason
// to filter rows by hash.
func TestRestrictedPlanNeedsPartition(t *testing.T) {
	cat := storage.NewCatalog()
	res, err := parser.Parse(`
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
edge(1,2). edge(2,3). edge(3,4).
tc(x,y) :- edge(x,y).
tc(x,y) :- tc(x,z), edge(z,y).
`, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	var rec *ir.SPJOp
	ir.Walk(root, func(o ir.Op) {
		if s, ok := o.(*ir.SPJOp); ok && s.DeltaAtom() >= 0 {
			rec = s
		}
	})
	tc, _ := cat.PredByName("tc")
	edge, _ := cat.PredByName("edge")
	edge.Derived.Each(func(row []storage.Value) bool {
		tc.DeltaKnown.Insert(row)
		return true
	})
	run := func(shards int) (derived int, panicked any) {
		tc.SetShardsPhysical(shards, 0)
		plan, err := BuildPlan(rec, cat)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range plan.Steps {
			if st.Src == ir.SrcDelta {
				plan.ShardStep = i
				break
			}
		}
		plan.Shard, plan.ShardSpan, plan.ShardCount = 0, 4, 4
		EnsureDeltaIndexes(plan, cat)
		defer func() { panicked = recover() }()
		plan.Execute(cat, func(_, _ []storage.Value) { derived++ })
		return derived, nil
	}
	if n, panicked := run(4); panicked != nil || n != 2 {
		t.Fatalf("full span over the 4-way delta: %d rows, panic %v; want 2", n, panicked)
	}
	for _, shards := range []int{0, 8} {
		_, panicked := run(shards)
		if msg, _ := panicked.(string); !strings.Contains(msg, "physical buckets") {
			t.Fatalf("a 4-bucket task over a %d-way delta: panic %v", shards, panicked)
		}
	}
}
