package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"carac/internal/interp"
	"carac/internal/storage"
)

// cancelledChain returns a TC Program over a chain whose Run under opts a
// 1 ms Timeout stopped mid-fixpoint, at a safe point between iterations'
// ops or, on the pool, inside the tasks reading their morsels of δ: δ still
// holds rows — borrowed from Derived, or owed by it — when the Run gives up.
// It doubles the chain until a Run is that long.
func cancelledChain(t *testing.T, opts Options) (p *Program, edges [][2]int32) {
	t.Helper()
	opts.Timeout = time.Millisecond
	for n := 300; n <= 2400; n *= 2 {
		p, _ = buildTC(t, n)
		_, err := p.Run(opts)
		if err == nil {
			continue
		}
		if !errors.Is(err, interp.ErrCancelled) {
			t.Fatal(err)
		}
		if tc, _ := p.Catalog().PredByName("tc"); tc.DeltaKnown.Empty() && tc.NewLen() == 0 {
			continue // stopped before the loop
		}
		for i := int32(0); i < int32(n); i++ {
			edges = append(edges, [2]int32{i, i + 1})
		}
		return p, edges
	}
	t.Fatal("no TC Run stopped mid-fixpoint")
	return nil, nil
}

// TestCancelledRunThenRunApplyServe cancels a TC Run mid-fixpoint, where
// δ borrows Derived's newest rows and δ′ is owed the next ones, and then
// drives the same Program through a Run, a delete Apply, and a Serve with
// IngestTx and Publish. Each must match the recompute oracle: nothing the
// cancelled Run left lent or owed may leak into the next evaluation or be
// rewritten under a reader. The flat leg runs every evaluation sequentially;
// the Pooled leg fans every iteration out into 8 morsel tasks on 2 workers,
// so the cancel lands while the tasks read their morsels of the lent δ. Run
// it under -tags scratchpoison too, which poisons every slab given back to
// the scratch pool.
func TestCancelledRunThenRunApplyServe(t *testing.T) {
	for _, leg := range []struct {
		prefix string
		opts   Options
	}{
		{"", Options{Indexed: true, Workers: 1}},
		{"Pooled", Options{Indexed: true, Shards: 8, Workers: 2, FanoutThreshold: 1}},
	} {
		cancelledRunThenRunApplyServe(t, leg.prefix, leg.opts)
	}
}

func cancelledRunThenRunApplyServe(t *testing.T, prefix string, opts Options) {
	chain := func() *Program { p, _ := buildTC(t, 0); return p }

	t.Run(prefix+"Run", func(t *testing.T) {
		p, edges := cancelledChain(t, opts)
		if _, err := p.Run(opts); err != nil {
			t.Fatal(err)
		}
		checkOracle(t, "Run", p, chain, "edge", edges)
	})

	t.Run(prefix+"Apply", func(t *testing.T) {
		p, edges := cancelledChain(t, opts)
		mid := edges[len(edges)/2]
		if _, err := applyFacts(t, p, "edge", opts, [][2]int32{mid}, [][2]int32{{0, 5}}); err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(slices.Clone(edges), func(e [2]int32) bool { return e == mid })
		checkOracle(t, "Apply", p, chain, "edge", append(want, [2]int32{0, 5}))
	})

	t.Run(prefix+"Serve", func(t *testing.T) {
		p, edges := cancelledChain(t, opts)
		serve := opts
		serve.Materialize = true
		srv, err := p.Serve(serve)
		if err != nil {
			t.Fatal(err)
		}
		mid := edges[len(edges)/3]
		tx := p.NewTx()
		tx.DeleteTuple(p.Relation("edge", 2), []storage.Value{mid[0], mid[1]})
		tx.InsertTuple(p.Relation("edge", 2), []storage.Value{0, 7})
		if _, err := srv.IngestTx(tx); err != nil {
			t.Fatal(err)
		}
		srv.Publish()
		sess, err := srv.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Query(); err != nil {
			t.Fatal(err)
		}
		o := chain()
		for _, e := range edges {
			if e != mid {
				o.Relation("edge", 2).FactTuple([]storage.Value{e[0], e[1]})
			}
		}
		o.Relation("edge", 2).FactTuple([]storage.Value{0, 7})
		if _, err := o.Run(Options{}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"edge", "tc"} {
			var got []string
			sess.Each(p.Relation(name, 2), func(row []storage.Value) bool {
				got = append(got, fmt.Sprint(row))
				return true
			})
			want := rowStrings(o.Relation(name, 2))
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("Serve: the session reads %d %s rows, the oracle %d", len(got), name, len(want))
			}
		}
	})
}

// rowStrings returns r's Derived rows, printed and sorted.
func rowStrings(r *Relation) []string {
	var rows []string
	r.p.cat.Pred(r.id).Derived.Each(func(row []storage.Value) bool {
		rows = append(rows, fmt.Sprint(row))
		return true
	})
	sort.Strings(rows)
	return rows
}
