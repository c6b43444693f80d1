// Persistent-cache integration tests: the cold Run → flush → fresh Program
// + load → warm Run round trip, across the differential matrix's warm-rerun
// mode, plus the corruption and LRU-eviction contracts at the engine level.
// Lives in package core_test to drive the engine through the real workload
// builders, and reuses the differential harness's exec modes and snapshot
// comparators.
package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/plancache"
	"carac/internal/workloads"
)

var persistBuilds = []struct {
	name  string
	build func() *analysis.Built
}{
	{"TransitiveClosure", func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42) }},
	{"CSPA", func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42)) }},
}

// TestPersistColdWarmRoundTrip is the acceptance pin: on TC and CSPA, in
// every execution mode of the differential matrix, a restart over the cache
// directory derives byte-equal result sets. Under lambda the units come back
// as recompile hints and the restart builds 0 plans; interpreted, nothing is
// cached and every subquery execution builds its plan, restart or not. Each
// cell simulates a process restart with two fresh Programs over identical
// facts sharing one cache directory.
func TestPersistColdWarmRoundTrip(t *testing.T) {
	for _, w := range persistBuilds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, em := range execModes {
				for _, backend := range []jit.Backend{jit.BackendOff, jit.BackendLambda} {
					opts := core.Options{Indexed: true}
					em.set(&opts)
					if backend != jit.BackendOff {
						opts.JIT = jit.Config{Backend: backend, Granularity: jit.GranSPJ}
					}
					config := fmt.Sprintf("%s/jit=%v", em.name, backend)
					opts.CacheDir = t.TempDir()

					cold := w.build()
					res1, err := cold.P.Run(opts)
					if err != nil {
						t.Fatalf("%s cold: %v", config, err)
					}
					want := snapshotAll(cold.P)
					checkPooled(t, config+" cold", em, res1)

					warm := w.build()
					res2, err := warm.P.Run(opts)
					if err != nil {
						t.Fatalf("%s warm: %v", config, err)
					}
					if !reflect.DeepEqual(want, snapshotAll(warm.P)) {
						diffSnapshots(t, config, want, snapshotAll(warm.P))
						t.Fatalf("%s: disk-warm result diverged", config)
					}
					ds, ok := warm.P.DiskStats()
					if !ok {
						t.Fatalf("%s: warm Program opened no cache directory", config)
					}
					if ds.Invalidations != 0 {
						t.Errorf("%s: clean directory reported invalidations: %+v", config, ds)
					}
					// Interpreted cells plan every execution, cold or warm.
					// Under lambda at SPJ granularity compiled units
					// intercept every subquery; they persist as recompile
					// hints, which load as misses and are compiled again.
					if backend == jit.BackendOff {
						for run, res := range []*core.Result{res1, res2} {
							if res.Interp.PlanBuilds == 0 || res.Interp.PlanBuilds != res.Interp.SPJRuns {
								t.Errorf("%s run %d: %d plans for %d subquery runs, want one each", config, run+1, res.Interp.PlanBuilds, res.Interp.SPJRuns)
							}
						}
					}
					if backend == jit.BackendLambda {
						if res2.Interp.PlanBuilds != 0 {
							t.Errorf("%s: disk-warm restart built %d plans, want 0", config, res2.Interp.PlanBuilds)
						}
						if ds.Misses == 0 || res2.JIT.Compilations == 0 {
							t.Errorf("%s: no recompile hint came back (%+v, %d compilations)", config, ds, res2.JIT.Compilations)
						}
					}
				}
			}
		})
	}
}

// TestPersistCorruptedDirectory mangles the flushed cache files and requires
// the warm Program to fall back to a full cold build — identical results,
// counted invalidations, no error — and its own flush to repair the
// directory for a third Program, whose recompile hints load again.
func TestPersistCorruptedDirectory(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Indexed: true, CacheDir: dir, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}

	cold := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	if _, err := cold.P.Run(opts); err != nil {
		t.Fatalf("cold: %v", err)
	}
	want := snapshotAll(cold.P)

	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files after cold run: %v", err)
	}
	for i, f := range files {
		path := filepath.Join(dir, f.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // truncate
			b = b[:len(b)/3]
		case 1: // bit flip mid-payload
			if len(b) > 0 {
				b[len(b)/2] ^= 0x10
			}
		case 2: // garbage of the same length
			for j := range b {
				b[j] = byte(j)
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	res, err := warm.P.Run(opts)
	if err != nil {
		t.Fatalf("warm over corrupt dir must not error: %v", err)
	}
	if !reflect.DeepEqual(want, snapshotAll(warm.P)) {
		t.Fatal("corrupt-cache fallback diverged from baseline")
	}
	ds, _ := warm.P.DiskStats()
	if ds.Invalidations == 0 {
		t.Fatalf("corrupt files not counted: %+v", ds)
	}
	if ds.Hits != 0 || ds.Misses != 0 {
		t.Fatalf("corrupt files served entries: %+v", ds)
	}
	if res.JIT.Compilations == 0 {
		t.Fatal("fallback run should have compiled its units cold")
	}

	// The fallback run's flush overwrote the corpses: a third Program loads
	// every recompile hint again.
	repaired := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	if _, err := repaired.P.Run(opts); err != nil {
		t.Fatalf("repaired: %v", err)
	}
	ds3, _ := repaired.P.DiskStats()
	if ds3.Invalidations != 0 || ds3.Misses == 0 {
		t.Fatalf("flush did not repair the directory: %+v", ds3)
	}
}

// TestPersistEvictionSurvivesOnDisk runs CSPA under lambda against a cache
// directory, then again in a fresh Program whose unit store holds one entry
// per lock shard, so run-time stores evict units, and finally opens the
// directory a third time at the default bound. Flush never deletes files, so
// the third Program loads a recompile hint for every unit the cold run
// stored (the strict evicted-then-reloaded round trip is pinned at the
// plancache level).
func TestPersistEvictionSurvivesOnDisk(t *testing.T) {
	dir := t.TempDir()
	build := func() *analysis.Built {
		return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(60, 11))
	}
	opts := core.Options{Indexed: true, CacheDir: dir, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}

	cold := build()
	if _, err := cold.P.Run(opts); err != nil {
		t.Fatalf("cold: %v", err)
	}
	want := snapshotAll(cold.P)
	units := cold.P.PlanStore().Keys(plancache.ClassUnits)
	if units == 0 {
		t.Fatal("cold run stored no units — nothing to evict")
	}

	tiny := build()
	core.LimitPlanStore(tiny.P, 16) // one entry per lock shard
	if _, err := tiny.P.Run(opts); err != nil {
		t.Fatalf("tiny: %v", err)
	}
	if !reflect.DeepEqual(want, snapshotAll(tiny.P)) {
		t.Fatal("tiny-store run diverged")
	}
	if tiny.P.PlanStore().Stats().Evictions == 0 {
		t.Fatalf("%d units never overflowed the 16-entry store", units)
	}

	warm := build()
	if _, err := warm.P.Run(opts); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if ds, _ := warm.P.DiskStats(); ds.Misses < int64(units) {
		t.Fatalf("post-eviction restart loaded %d recompile hints, the cold run stored %d units: %+v", ds.Misses, units, ds)
	}
	if !reflect.DeepEqual(want, snapshotAll(warm.P)) {
		t.Fatal("post-eviction warm run diverged")
	}
}

// TestPersistProfileSnapshot checks the stats profile rides along: a warm
// Program exposes the world the previous run ended in.
func TestPersistProfileSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Indexed: true, CacheDir: dir}
	cold := workloads.TransitiveClosure(analysis.HandOptimized, 40, 90, 3)
	if _, err := cold.P.Run(opts); err != nil {
		t.Fatal(err)
	}
	if cold.P.CachedProfile() != nil {
		t.Fatal("cold Program should have loaded no profile")
	}
	tcLen := cold.Output.Len()

	warm := workloads.TransitiveClosure(analysis.HandOptimized, 40, 90, 3)
	if _, err := warm.P.Run(opts); err != nil {
		t.Fatal(err)
	}
	prof := warm.P.CachedProfile()
	if prof == nil {
		t.Fatal("warm Program exposes no cached profile")
	}
	pd, ok := warm.P.Catalog().PredByName("tc")
	if !ok {
		t.Fatal("no tc predicate")
	}
	if got := prof.Card(pd.ID, ir.SrcDerived); got != tcLen {
		t.Fatalf("profile cardinality of tc = %d, want post-fixpoint %d", got, tcLen)
	}
}

// TestPersistServeFlushOnPublish pins the serve-mode wiring: a server over a
// cache directory flushes on publish, and a restarted Program loads the
// recompile hints of the units sessions compiled.
func TestPersistServeFlushOnPublish(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Indexed: true, CacheDir: dir, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}

	built := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	srv, err := built.P.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(); err != nil {
		t.Fatalf("query: %v", err)
	}
	sess.Close()
	srv.Publish() // flush point: persists what the session built
	if ds, ok := srv.DiskStats(); !ok || ds.Flushes == 0 {
		ds, _ := srv.DiskStats()
		t.Fatalf("publish did not flush: %+v", ds)
	}

	restarted := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	res, err := restarted.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interp.PlanBuilds != 0 {
		t.Fatalf("restart after serve flush built %d plans, want 0", res.Interp.PlanBuilds)
	}
	if ds, _ := restarted.P.DiskStats(); ds.Misses == 0 {
		t.Fatalf("restart after serve flush loaded no recompile hint: %+v", ds)
	}
}
