// Serving-layer tests: the concurrent-session differential mode (N sessions
// over one Program must each equal the sequential oracle, interpreted and
// JIT-compiled, under -race), the epoch/generation protocol pins, and the
// single-Run race regressions the serving work flushed out.
package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

// sessionRows snapshots a session's derived rows for one relation as sorted
// strings, comparable against a sequential oracle's relationRows.
func sessionRows(sess *core.Session, r *core.Relation) []string {
	rows := make([]string, 0, sess.Len(r))
	sess.Each(r, func(t []storage.Value) bool {
		rows = append(rows, fmt.Sprint(t))
		return true
	})
	sort.Strings(rows)
	return rows
}

func relationRows(r *core.Relation) []string {
	rows := make([]string, 0, r.Len())
	r.Each(func(t []storage.Value) bool {
		rows = append(rows, fmt.Sprint(t))
		return true
	})
	sort.Strings(rows)
	return rows
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentRunGuard is the -race regression for the run mutex:
// concurrent Run invocations on one Program used to race on the
// frozen/baseLens/baselineClean baseline capture and silently corrupt the
// ground-fact baseline. With the guard they serialize; every Run (including
// a final sequential one) must produce the oracle result.
func TestConcurrentRunGuard(t *testing.T) {
	oracle := workloads.TransitiveClosure(analysis.HandOptimized, 40, 80, 7)
	if _, err := oracle.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	want := relationRows(oracle.Output)

	b := workloads.TransitiveClosure(analysis.HandOptimized, 40, 80, 7)
	const goroutines, runs = 4, 3
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if _, err := b.P.Run(core.Options{Indexed: true}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if _, err := b.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("final run: %v", err)
	}
	if got := relationRows(b.Output); !equalRows(got, want) {
		t.Fatalf("baseline corrupted by concurrent runs: %d rows, oracle %d", len(got), len(want))
	}
}

// TestServeConcurrentSessionsDifferential is the concurrent-session
// differential mode: N sessions over one served Program, each running the
// fixpoint twice, must all equal the sequential oracle — for TC and CSPA,
// interpreted and JIT-compiled. The serving Program is warmed by a plain Run
// first, so a JIT config's session unit hits cross the epoch boundary
// (CrossRunHits > 0).
func TestServeConcurrentSessionsDifferential(t *testing.T) {
	builds := []struct {
		name  string
		build func() *analysis.Built
	}{
		{"TC", func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 60, 120, 11) }},
		{"CSPA", func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(120, 17)) }},
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"interp", core.Options{Indexed: true, SharedPlans: true}},
		{"jit", core.Options{Indexed: true, SharedPlans: true,
			JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}},
		// The fixtures are Run-only (fixtureRunOnly).
		{"bytecode", core.Options{Indexed: true, SharedPlans: true,
			JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranSPJ}}},
		{"quotes", core.Options{Indexed: true, SharedPlans: true,
			JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranSPJ}}},
	}
	const sessions, queries = 4, 2

	for _, wl := range builds {
		oracle := wl.build()
		if _, err := oracle.P.Run(core.Options{Indexed: true}); err != nil {
			t.Fatalf("%s oracle: %v", wl.name, err)
		}
		want := relationRows(oracle.Output)

		for _, cfg := range configs {
			t.Run(wl.name+"/"+cfg.name, func(t *testing.T) {
				b := wl.build()
				if cfg.opts.JIT.Backend.Fixture() {
					fixtureRunOnly(t, b, cfg.opts, want)
					return
				}
				// Warm run: populates the shared store, so serving sessions
				// reuse its plans across the epoch boundary.
				if _, err := b.P.Run(cfg.opts); err != nil {
					t.Fatalf("warm run: %v", err)
				}
				srv, err := b.P.Serve(cfg.opts)
				if err != nil {
					t.Fatalf("serve: %v", err)
				}
				var wg sync.WaitGroup
				errCh := make(chan error, sessions*queries)
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sess, err := srv.Session()
						if err != nil {
							errCh <- fmt.Errorf("session %d: %v", i, err)
							return
						}
						defer sess.Close()
						for q := 0; q < queries; q++ {
							res, err := sess.Query()
							if err != nil {
								errCh <- fmt.Errorf("session %d query %d: %v", i, q, err)
								return
							}
							if res.TotalFacts != oracle.P.Catalog().TotalDerived() {
								errCh <- fmt.Errorf("session %d query %d: %d total facts, oracle %d",
									i, q, res.TotalFacts, oracle.P.Catalog().TotalDerived())
								return
							}
							if got := sessionRows(sess, b.Output); !equalRows(got, want) {
								errCh <- fmt.Errorf("session %d query %d: %d output rows, oracle %d",
									i, q, len(got), len(want))
								return
							}
						}
					}(i)
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Error(err)
				}
				// Warm-store reuse across the epoch boundary: a JIT config's
				// sessions serve the units the warm Run compiled. The
				// interpreter caches no plans, so an interpreted config
				// leaves the store empty.
				hits := srv.UnitStats().CrossRunHits
				if jitOn := cfg.opts.JIT.Backend != jit.BackendOff; jitOn != (hits > 0) {
					t.Errorf("jit=%v: %d cross-run unit hits from the warmed store", jitOn, hits)
				}
			})
		}
	}
}

// TestServeEpochGeneration pins the per-epoch (not per-query) generation
// semantics: two sessions querying inside one epoch must not bump the
// unit-store generation — the double-bump misattributed same-epoch reuse as
// CrossRunHits — while Ingest+Publish advances it exactly once.
func TestServeEpochGeneration(t *testing.T) {
	b := workloads.TransitiveClosure(analysis.HandOptimized, 40, 80, 13)
	opts := core.Options{Indexed: true, SharedPlans: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}
	if _, err := b.P.Run(opts); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	store := b.P.PlanStore()
	srv, err := b.P.Serve(opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	gen0 := store.Generation()
	epoch0 := b.P.Catalog().Epoch()

	s1, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	r1, err := s1.Query()
	if err != nil {
		t.Fatal(err)
	}
	if g := store.Generation(); g != gen0 {
		t.Fatalf("session query bumped store generation: %d -> %d", gen0, g)
	}
	r2, err := s2.Query()
	if err != nil {
		t.Fatal(err)
	}
	if g := store.Generation(); g != gen0 {
		t.Fatalf("second session's query bumped store generation: %d -> %d", gen0, g)
	}
	if r1.TotalFacts != r2.TotalFacts {
		t.Fatalf("sessions on one epoch disagree: %d vs %d facts", r1.TotalFacts, r2.TotalFacts)
	}
	if hits := srv.UnitStats().CrossRunHits; hits == 0 {
		t.Errorf("expected cross-run unit hits on the warmed store, got 0")
	}
	baseline := s1.Len(b.Output)

	// The epoch flip is the only generation boundary: ingest + publish bumps
	// both counters exactly once.
	edge := b.P.Relation("edge", 2)
	srv.Ingest(func() {
		edge.MustFact(500, 0) // a fresh source node: guaranteed new tc rows
	})
	if g := store.Generation(); g != gen0 {
		t.Fatalf("ingest alone must not bump the generation: %d -> %d", gen0, g)
	}
	e2 := srv.Publish()
	if g := store.Generation(); g != gen0+1 {
		t.Fatalf("publish must bump the generation once: %d -> %d", gen0, g)
	}
	if got := b.P.Catalog().Epoch(); got != epoch0+1 {
		t.Fatalf("publish must advance the catalog epoch once: %d -> %d", epoch0, got)
	}
	if e2.Generation() != epoch0+1 {
		t.Fatalf("epoch generation %d, want %d", e2.Generation(), epoch0+1)
	}

	// Snapshot isolation: the old session keeps its pinned epoch's answer;
	// a new session sees the ingested fact.
	if _, err := s1.Query(); err != nil {
		t.Fatal(err)
	}
	if got := s1.Len(b.Output); got != baseline {
		t.Fatalf("pinned session saw the new epoch: %d rows, want %d", got, baseline)
	}
	s3, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, err := s3.Query(); err != nil {
		t.Fatal(err)
	}
	if got := s3.Len(b.Output); got <= baseline {
		t.Fatalf("new session must see the ingested fact: %d rows, baseline %d", got, baseline)
	}
}

// TestServeStatsSnapshotInvariant pins the snapshot-before-rewind fix: an
// epoch's statistics are deep copies taken at the boundary, so later
// ingestion and the baseline rewind (which truncates and rebuilds the very
// histograms and cardinalities live readers would observe mid-flight) leave
// them bit-identical.
func TestServeStatsSnapshotInvariant(t *testing.T) {
	b := workloads.TransitiveClosure(analysis.HandOptimized, 40, 80, 17)
	opts := core.Options{Indexed: true, Histograms: true}
	srv, err := b.P.Serve(opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	epoch := srv.Epoch()
	edgeID := b.P.Relation("edge", 2).ID()

	card0 := epoch.Stats().Card(edgeID, ir.SrcDerived)
	if card0 == 0 {
		t.Fatalf("epoch snapshot has no edge cardinality")
	}
	hist0, ok := epoch.Stats().Histogram(edgeID, ir.SrcDerived, 0)
	if !ok || hist0.Total == 0 {
		t.Fatalf("epoch snapshot has no edge histogram (ok=%v total=%d)", ok, hist0.Total)
	}
	dist0 := epoch.Stats().Distinct(edgeID, ir.SrcDerived, 0)

	// Mutate the live catalog hard: run a fixpoint (derives rows on top of
	// the pinned baseline), ingest a skewed burst, and publish — the publish
	// path rewinds to baseline, truncating and rebuilding live histograms.
	if _, err := b.P.Run(opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	edge := b.P.Relation("edge", 2)
	srv.Ingest(func() {
		for i := 0; i < 100; i++ {
			edge.MustFact(7, 1000+i)
		}
	})
	srv.Publish()

	live, _ := b.P.Catalog().Pred(edgeID).Derived.HistogramOf(0)
	if live.Total == hist0.Total {
		t.Fatalf("test vacuous: live histogram did not change (total %d)", live.Total)
	}
	if got := epoch.Stats().Card(edgeID, ir.SrcDerived); got != card0 {
		t.Errorf("epoch cardinality drifted: %d -> %d", card0, got)
	}
	if got := epoch.Stats().Distinct(edgeID, ir.SrcDerived, 0); got != dist0 {
		t.Errorf("epoch distinct count drifted: %d -> %d", dist0, got)
	}
	got, ok := epoch.Stats().Histogram(edgeID, ir.SrcDerived, 0)
	if !ok || got != hist0 {
		t.Errorf("epoch histogram drifted (ok=%v): %+v -> %+v", ok, hist0.Counts[:4], got.Counts[:4])
	}

	// And the new epoch's snapshot reflects the published state: baseline
	// ground facts plus the burst, no derived rows.
	e2 := srv.Epoch()
	if c := e2.Stats().Card(edgeID, ir.SrcDerived); c != card0+100 {
		t.Errorf("new epoch edge cardinality %d, want %d", c, card0+100)
	}
	h2, ok := e2.Stats().Histogram(edgeID, ir.SrcDerived, 0)
	if !ok || h2.Total != uint64(card0+100) {
		t.Errorf("new epoch histogram total %d, want %d", h2.Total, card0+100)
	}
}

// TestServeSharded exercises sessions under the sharded parallel
// configuration (private catalogs, morsel tasks on pooled workers), the
// configuration production serving would run.
func TestServeSharded(t *testing.T) {
	oracle := workloads.TransitiveClosure(analysis.HandOptimized, 60, 120, 19)
	if _, err := oracle.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := relationRows(oracle.Output)

	b := workloads.TransitiveClosure(analysis.HandOptimized, 60, 120, 19)
	srv, err := b.P.Serve(core.Options{
		Indexed: true, ParallelUnions: true, Shards: 8, Workers: 4, FanoutThreshold: 1,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	// A lone session on an idle server is granted the whole pool, so its
	// query must fan out and fold worker buffers.
	lone, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lone.Query()
	lone.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interp.MergeTasks == 0 {
		t.Fatal("a lone sharded session never folded a worker buffer")
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := srv.Session()
			if err != nil {
				errCh <- err
				return
			}
			defer sess.Close()
			if _, err := sess.Query(); err != nil {
				errCh <- err
				return
			}
			if got := sessionRows(sess, b.Output); !equalRows(got, want) {
				errCh <- fmt.Errorf("session %d: %d rows, oracle %d", i, len(got), len(want))
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestServeEpochRowsPinned pins the storage contract end to end: the epoch's
// row views survive ingestion bursts and baseline rewinds on the serving
// catalog (copy-on-flip), byte for byte.
func TestServeEpochRowsPinned(t *testing.T) {
	b := workloads.TransitiveClosure(analysis.HandOptimized, 30, 60, 23)
	srv, err := b.P.Serve(core.Options{Indexed: true})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	edge := b.P.Relation("edge", 2)
	epoch := srv.Epoch()
	rows := epoch.Rows(edge.ID())
	before := make([]string, 0, rows.Len())
	rows.Each(func(t []storage.Value) bool {
		before = append(before, fmt.Sprint(t))
		return true
	})

	// Derive (direct run), ingest, publish twice — each publish rewinds the
	// arena the epoch pinned.
	for round := 0; round < 2; round++ {
		if _, err := b.P.Run(core.Options{Indexed: true}); err != nil {
			t.Fatalf("run %d: %v", round, err)
		}
		srv.Ingest(func() {
			for i := 0; i < 50; i++ {
				edge.MustFact(2000+50*round+i, 1)
			}
		})
		srv.Publish()
	}

	after := make([]string, 0, rows.Len())
	rows.Each(func(t []storage.Value) bool {
		after = append(after, fmt.Sprint(t))
		return true
	})
	if !equalRows(before, after) {
		t.Fatalf("pinned epoch rows changed: %d -> %d rows", len(before), len(after))
	}
	if live := edge.Len(); live == rows.Len() {
		t.Fatalf("test vacuous: live relation did not grow past the pin (%d rows)", live)
	}
}
