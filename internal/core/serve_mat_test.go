// Materialized-epoch serving tests: single-flight deduplication of the
// per-epoch fixpoint (N concurrent sessions, one derivation), epoch-flip
// invalidation, the semi-naive warm start from the previous epoch's
// materialization, and the mixed differential matrix (memo hits,
// materialized lookups, and cold/warm derivations across an Ingest/Publish
// boundary) — all vs the sequential oracle, designed to run under -race.
package core_test

import (
	"fmt"
	"sync"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/jit"
	"carac/internal/workloads"
)

// TestServeSingleFlightMemo is the memoization pin: 8 sessions issue the
// identical query concurrently on one epoch, exactly one fixpoint derivation
// runs (the single-flight winner), every other query answers from the memo,
// and all answers are byte-equal to the sequential oracle. After an
// Ingest+Publish the memo is invalid for the new epoch: a fresh session's
// query recomputes exactly once more, while a session pinned to the old
// epoch keeps answering from the old materialization.
func TestServeSingleFlightMemo(t *testing.T) {
	oracle := workloads.TransitiveClosure(analysis.HandOptimized, 60, 120, 29)
	if _, err := oracle.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := relationRows(oracle.Output)
	wantTotal := oracle.P.Catalog().TotalDerived()

	b := workloads.TransitiveClosure(analysis.HandOptimized, 60, 120, 29)
	srv, err := b.P.Serve(core.Options{Indexed: true, Materialize: true})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	const clients = 8
	sessions := make([]*core.Session, clients)
	for i := range sessions {
		if sessions[i], err = srv.Session(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		defer sessions[i].Close()
	}

	// Barrier start: all 8 queries in flight together, racing for the
	// single-flight leadership.
	start := make(chan struct{})
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *core.Session) {
			defer wg.Done()
			<-start
			res, err := sess.Query()
			if err != nil {
				errCh <- fmt.Errorf("session %d: %v", i, err)
				return
			}
			if res.TotalFacts != wantTotal {
				errCh <- fmt.Errorf("session %d: %d total facts, oracle %d", i, res.TotalFacts, wantTotal)
				return
			}
			if got := sessionRows(sess, b.Output); !equalRows(got, want) {
				errCh <- fmt.Errorf("session %d: %d output rows, oracle %d", i, len(got), len(want))
			}
		}(i, sess)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := srv.Stats()
	if st.Derivations != 1 {
		t.Errorf("derivations = %d, want exactly 1 (single flight)", st.Derivations)
	}
	if st.MemoHits != clients-1 {
		t.Errorf("memo hits = %d, want %d", st.MemoHits, clients-1)
	}
	if st.MaterializedEpochs != 1 {
		t.Errorf("materialized epochs = %d, want 1", st.MaterializedEpochs)
	}
	if !srv.Epoch().Materialized() {
		t.Errorf("epoch not marked materialized after derivation")
	}
	if srv.Epoch().MaterializedStats() == nil {
		t.Errorf("materialized epoch carries no post-fixpoint statistics snapshot")
	}

	// Re-query on a pinned session: still a memo hit, not a derivation.
	if _, err := sessions[0].Query(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Derivations; got != 1 {
		t.Errorf("re-query derived again: %d derivations", got)
	}

	// Epoch flip invalidates: the new epoch's first query must recompute.
	edge := b.P.Relation("edge", 2)
	srv.Ingest(func() { edge.MustFact(900, 0) })
	srv.Publish()
	if srv.Epoch().Materialized() {
		t.Fatalf("fresh epoch must not be materialized before its first query")
	}
	s2, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res2, err := s2.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalFacts <= wantTotal {
		t.Errorf("new epoch ignored the ingested fact: %d total facts, old epoch %d", res2.TotalFacts, wantTotal)
	}
	if got := srv.Stats().Derivations; got != 2 {
		t.Errorf("derivations after publish = %d, want 2", got)
	}
	// The old session keeps its pinned epoch's materialization.
	if _, err := sessions[1].Query(); err != nil {
		t.Fatal(err)
	}
	if got := sessions[1].Len(b.Output); got != len(want) {
		t.Errorf("pinned session drifted after publish: %d rows, want %d", got, len(want))
	}
}

// TestServeMaterializedWarmStart pins the warm start's correctness: the
// second epoch's materialization is seeded from the first epoch's fixpoint
// plus the ingested delta (WarmStarts counts it), and its rows are identical
// to a from-scratch oracle over the full fact set — including derivations
// that join *old* fixpoint rows with *new* ground facts, which a
// recursive-only delta lowering would miss.
func TestServeMaterializedWarmStart(t *testing.T) {
	b := workloads.TransitiveClosure(analysis.HandOptimized, 50, 100, 31)
	srv, err := b.P.Serve(core.Options{Indexed: true, Materialize: true})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	s1, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if _, err := s1.Query(); err != nil {
		t.Fatal(err)
	}

	// The delta: a chain through fresh nodes attached to node 0, so new tc
	// rows require joining old tc(x, 0) rows against new edge facts.
	edge := b.P.Relation("edge", 2)
	srv.Ingest(func() {
		edge.MustFact(0, 700)
		edge.MustFact(700, 701)
		edge.MustFact(701, 702)
	})
	srv.Publish()

	s2, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Query(); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.WarmStarts != 1 {
		t.Errorf("warm starts = %d, want 1", st.WarmStarts)
	}
	if st.MaterializedEpochs != 2 {
		t.Errorf("materialized epochs = %d, want 2", st.MaterializedEpochs)
	}

	// Oracle: the same workload rebuilt from scratch with the delta included
	// as ground facts.
	oracle := workloads.TransitiveClosure(analysis.HandOptimized, 50, 100, 31)
	oe := oracle.P.Relation("edge", 2)
	oe.MustFact(0, 700)
	oe.MustFact(700, 701)
	oe.MustFact(701, 702)
	if _, err := oracle.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := relationRows(oracle.Output)
	if got := sessionRows(s2, b.Output); !equalRows(got, want) {
		t.Fatalf("warm-started fixpoint diverges from oracle: %d rows, want %d", len(got), len(want))
	}
}

// TestServeMaterializedMatrix is the concurrent-session differential matrix
// for materialized serving: TC and CSPA, across the interpreter and lambda,
// four sessions per cell; the bytecode and quotes cells are Run-only
// (fixtureRunOnly). Each cell mixes every answer path across an
// Ingest/Publish boundary — a cold single-flight derivation
// racing three waiters on epoch 1, a session opened after materialization
// (seeded lookup), then a publish and a warm (or cold, for non-monotone
// programs) derivation plus memo hits on epoch 2 — and every answer must
// equal the sequential oracle for its epoch's fact set.
func TestServeMaterializedMatrix(t *testing.T) {
	builds := []struct {
		name  string
		build func() *analysis.Built
		delta func(b *analysis.Built)
	}{
		{
			"TC",
			func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 50, 100, 37) },
			func(b *analysis.Built) {
				e := b.P.Relation("edge", 2)
				e.MustFact(0, 800)
				e.MustFact(800, 801)
			},
		},
		{
			"CSPA",
			func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(100, 41)) },
			func(b *analysis.Built) {
				a := b.P.Relation("Assign", 2)
				a.MustFact(0, 90)
				a.MustFact(90, 91)
			},
		},
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"interp", core.Options{Indexed: true, Materialize: true}},
		{"jit", core.Options{Indexed: true, Materialize: true,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}},
		{"bytecode", core.Options{Indexed: true, Materialize: true,
			JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranSPJ}}},
		{"quotes", core.Options{Indexed: true, Materialize: true,
			JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranSPJ}}},
	}

	for _, wl := range builds {
		// Oracles for both epochs' fact sets.
		o1 := wl.build()
		if _, err := o1.P.Run(core.Options{Indexed: true}); err != nil {
			t.Fatalf("%s epoch-1 oracle: %v", wl.name, err)
		}
		want1 := relationRows(o1.Output)
		o2 := wl.build()
		wl.delta(o2)
		if _, err := o2.P.Run(core.Options{Indexed: true}); err != nil {
			t.Fatalf("%s epoch-2 oracle: %v", wl.name, err)
		}
		want2 := relationRows(o2.Output)

		for _, cfg := range configs {
			t.Run(wl.name+"/"+cfg.name, func(t *testing.T) {
				b := wl.build()
				if cfg.opts.JIT.Backend.Fixture() {
					fixtureRunOnly(t, b, cfg.opts, want1)
					return
				}
				srv, err := b.P.Serve(cfg.opts)
				if err != nil {
					t.Fatalf("serve: %v", err)
				}

				// Epoch 1: four concurrent sessions — one cold derivation,
				// three single-flight waiters.
				var wg sync.WaitGroup
				errCh := make(chan error, 8)
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sess, err := srv.Session()
						if err != nil {
							errCh <- fmt.Errorf("session %d: %v", i, err)
							return
						}
						defer sess.Close()
						if _, err := sess.Query(); err != nil {
							errCh <- fmt.Errorf("session %d: %v", i, err)
							return
						}
						if got := sessionRows(sess, b.Output); !equalRows(got, want1) {
							errCh <- fmt.Errorf("session %d: %d rows, oracle %d", i, len(got), len(want1))
						}
					}(i)
				}
				wg.Wait()

				// A session opened after materialization: seeded with the
				// pinned fixpoint, its query is a pure lookup.
				late, err := srv.Session()
				if err != nil {
					t.Fatal(err)
				}
				defer late.Close()
				if _, err := late.Query(); err != nil {
					t.Fatal(err)
				}
				if got := sessionRows(late, b.Output); !equalRows(got, want1) {
					t.Errorf("post-materialization session: %d rows, oracle %d", len(got), len(want1))
				}
				if d := srv.Stats().Derivations; d != 1 {
					t.Errorf("epoch 1 derivations = %d, want 1", d)
				}

				// Epoch 2: ingest the delta, publish, and query concurrently
				// again — one warm/cold derivation plus memo hits, while a
				// pinned epoch-1 session keeps its old answer.
				srv.Ingest(func() { wl.delta(b) })
				srv.Publish()
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sess, err := srv.Session()
						if err != nil {
							errCh <- fmt.Errorf("epoch-2 session %d: %v", i, err)
							return
						}
						defer sess.Close()
						if _, err := sess.Query(); err != nil {
							errCh <- fmt.Errorf("epoch-2 session %d: %v", i, err)
							return
						}
						if got := sessionRows(sess, b.Output); !equalRows(got, want2) {
							errCh <- fmt.Errorf("epoch-2 session %d: %d rows, oracle %d", i, len(got), len(want2))
						}
					}(i)
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Error(err)
				}
				if _, err := late.Query(); err != nil {
					t.Fatal(err)
				}
				if got := sessionRows(late, b.Output); !equalRows(got, want1) {
					t.Errorf("pinned epoch-1 session drifted after publish: %d rows, want %d", len(got), len(want1))
				}
				st := srv.Stats()
				if st.Derivations != 2 {
					t.Errorf("total derivations = %d, want 2 (one per epoch)", st.Derivations)
				}
				if st.MemoHits < 6 {
					t.Errorf("memo hits = %d, want >= 6", st.MemoHits)
				}
				if st.MaterializedEpochs != 2 {
					t.Errorf("materialized epochs = %d, want 2", st.MaterializedEpochs)
				}
			})
		}
	}
}
