package core_test

import (
	"maps"
	"slices"
	"testing"

	"carac/internal/core"
	"carac/internal/jit"
)

// TestDeltaProbesEveryBackend runs a rule whose plan probes its recursive
// atom's delta — r(y,w,z) once e(x,y,w) has bound both key columns, with e
// far smaller than δr, so every order the optimizer weighs keeps e first —
// under the interpreter, each JIT backend and the pool, over single-column
// and composite indexes, against the naive oracle. A delta links its rows
// into an index only on demand, so every executor must ensure the index
// before it probes; one that does not dies of the stale-probe panic here.
func TestDeltaProbesEveryBackend(t *testing.T) {
	build := func() *core.Program {
		p := core.NewProgram()
		big, e, r := p.Relation("big", 3), p.Relation("e", 3), p.Relation("r", 3)
		x, y, z, w := core.NewVar("x"), core.NewVar("y"), core.NewVar("z"), core.NewVar("w")
		p.MustRule(r.A(x, y, z), big.A(x, y, z))
		p.MustRule(r.A(x, y, z), e.A(x, y, w), r.A(y, w, z))
		for i := 0; i < 200; i++ {
			big.MustFact(i%10, (i*3)%10, i)
		}
		for i := 0; i < 12; i++ {
			e.MustFact((i*7)%10, i%10, (i*3)%10)
		}
		return p
	}
	ref := build()
	if _, err := ref.Run(core.Options{Naive: true}); err != nil {
		t.Fatal(err)
	}
	want := snapshotAll(ref)
	cells := map[string]core.Options{
		"interp":       {Indexed: true},
		"sharded-pool": {Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1},
		"sharded-pool-lambda": {Indexed: true, Shards: 4, Workers: 4, FanoutThreshold: 1,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}},
	}
	for _, be := range []jit.Backend{jit.BackendIRGen, jit.BackendLambda, jit.BackendBytecode, jit.BackendQuotes} {
		cells["jit-"+be.String()] = core.Options{Indexed: true, JIT: jit.Config{Backend: be, Granularity: jit.GranSPJ}}
	}
	for _, name := range slices.Sorted(maps.Keys(cells)) {
		for _, composite := range []bool{false, true} {
			opts, cell := cells[name], name
			opts.CompositeIndexes = composite
			if composite {
				cell += "-composite"
			}
			t.Run(cell, func(t *testing.T) {
				p := build()
				res, err := p.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if opts.Shards > 0 && res.Interp.MergeTasks == 0 {
					t.Fatal("the pool never ran")
				}
				diffSnapshots(t, cell, want, snapshotAll(p))
			})
		}
	}
}
