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
	"carac/internal/workloads"
)

var persistBuilds = []struct {
	name  string
	build func() *analysis.Built
}{
	{"TransitiveClosure", func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42) }},
	{"CSPA", func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42)) }},
}

// TestPersistColdWarmRoundTrip is the acceptance pin: a disk-warm restart
// builds 0 plans — and, on the bytecode backend, recompiles 0 units — on TC
// and CSPA, with byte-equal result sets, in every execution mode of the
// differential matrix. Each cell simulates a process restart with two fresh
// Programs over identical facts sharing one cache directory.
func TestPersistColdWarmRoundTrip(t *testing.T) {
	for _, w := range persistBuilds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, em := range execModes {
				for _, backend := range []jit.Backend{jit.BackendOff, jit.BackendBytecode} {
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
					if res1.Interp.PlanBuilds == 0 && res1.JIT.Compilations == 0 {
						t.Fatalf("%s: cold run built nothing — nothing to persist (%+v)", config, res1.Interp)
					}

					warm := w.build()
					res2, err := warm.P.Run(opts)
					if err != nil {
						t.Fatalf("%s warm: %v", config, err)
					}
					if !reflect.DeepEqual(want, snapshotAll(warm.P)) {
						diffSnapshots(t, config, want, snapshotAll(warm.P))
						t.Fatalf("%s: disk-warm result diverged", config)
					}
					if res2.Interp.PlanBuilds != 0 {
						t.Errorf("%s: disk-warm restart built %d plans, want 0", config, res2.Interp.PlanBuilds)
					}
					// Sequential bytecode units come back as real artifacts.
					// Every parallel cell — sharded, or ParallelUnions alone
					// on a host with more than one core, which also routes
					// rules through ShardCompiler — additionally compiles
					// span-parameterized task units, which ride the lambda
					// substrate and persist as recompile hints — those may
					// recompile; sequential cells must not.
					if backend == jit.BackendBytecode && opts.Shards == 0 && !opts.ParallelUnions && res2.JIT.Compilations != 0 {
						t.Errorf("%s: disk-warm restart recompiled %d bytecode units, want 0", config, res2.JIT.Compilations)
					}
					ds, ok := warm.P.DiskStats()
					if !ok || ds.Hits == 0 {
						t.Errorf("%s: warm Program loaded nothing from disk (%+v, ok=%v)", config, ds, ok)
					}
					if ds.Invalidations != 0 {
						t.Errorf("%s: clean directory reported invalidations: %+v", config, ds)
					}
					// Under the bytecode JIT at SPJ granularity, compiled
					// units intercept every subquery, so the cross-run signal
					// lives on the unit view; interpreted cells show it on
					// the plan view.
					if backend == jit.BackendOff && res2.Plans.CrossRunHits == 0 {
						t.Errorf("%s: disk-loaded plans served no cross-run hits: %+v", config, res2.Plans)
					}
					if backend == jit.BackendBytecode && res2.Units.CrossRunHits == 0 {
						t.Errorf("%s: disk-loaded units served no cross-run hits: %+v", config, res2.Units)
					}
				}
			}
		})
	}
}

// TestPersistCorruptedDirectory mangles the flushed cache files and requires
// the warm Program to fall back to a full cold build — identical results,
// counted invalidations, no error — and its own flush to repair the
// directory for a third Program.
func TestPersistCorruptedDirectory(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Indexed: true, CacheDir: dir,
		JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranSPJ}}

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
	if ds.Hits != 0 {
		t.Fatalf("corrupt files served %d entries: %+v", ds.Hits, ds)
	}
	// Under the bytecode JIT the fallback cold work shows up as unit
	// compilations, not plan builds (compiled units intercept the SPJs).
	if res.JIT.Compilations == 0 {
		t.Fatal("fallback run should have cold-compiled its units")
	}

	// The fallback run's flush overwrote the corpses: a third Program is
	// fully disk-warm again.
	repaired := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	res3, err := repaired.P.Run(opts)
	if err != nil {
		t.Fatalf("repaired: %v", err)
	}
	ds3, _ := repaired.P.DiskStats()
	if ds3.Invalidations != 0 || ds3.Hits == 0 {
		t.Fatalf("flush did not repair the directory: %+v", ds3)
	}
	if res3.Interp.PlanBuilds != 0 || res3.JIT.Compilations != 0 {
		t.Fatalf("repaired restart not warm: %d builds, %d compiles", res3.Interp.PlanBuilds, res3.JIT.Compilations)
	}
}

// TestPersistEvictionSurvivesOnDisk runs a mid-sized Program against a
// cache directory, then opens it with a pathologically small PlanStoreLimit
// — load-time injection plus run-time stores evict entries — and finally
// opens it a third time at the default limit. Flush never deletes files, so
// the disk retains the full key set; the tiny run's churn may overwrite some
// entries with later-iteration band state, so the contract here is "much
// warmer than cold", not zero builds (the strict evicted-then-reloaded
// round trip is pinned at the plancache level).
func TestPersistEvictionSurvivesOnDisk(t *testing.T) {
	dir := t.TempDir()
	build := func() *analysis.Built {
		return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(60, 11))
	}
	base := core.Options{Indexed: true, CacheDir: dir}

	cold := build()
	res1, err := cold.P.Run(base)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	want := snapshotAll(cold.P)
	if res1.Interp.PlanBuilds == 0 {
		t.Fatal("cold run built no plans — nothing to evict")
	}

	tiny := build()
	tinyOpts := base
	tinyOpts.PlanStoreLimit = 16 // one entry per lock shard
	if _, err := tiny.P.Run(tinyOpts); err != nil {
		t.Fatalf("tiny: %v", err)
	}
	if !reflect.DeepEqual(want, snapshotAll(tiny.P)) {
		t.Fatal("tiny-store run diverged")
	}
	if tiny.P.PlanStore().Stats().Evictions == 0 {
		t.Skip("workload too small to overflow the tiny store") // defensive; CSPA(60) overflows 16 entries
	}

	warm := build()
	res, err := warm.P.Run(base)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	ds, _ := warm.P.DiskStats()
	if ds.Hits == 0 {
		t.Fatalf("post-eviction restart loaded nothing from disk: %+v", ds)
	}
	if res.Interp.PlanBuilds >= res1.Interp.PlanBuilds {
		t.Fatalf("disk retained nothing across the eviction churn: %d builds vs %d cold",
			res.Interp.PlanBuilds, res1.Interp.PlanBuilds)
	}
	if !reflect.DeepEqual(want, snapshotAll(warm.P)) {
		t.Fatal("post-eviction warm run diverged")
	}
}

// TestPersistProfileSnapshot checks the stats profile rides along: a warm
// Program exposes the world its plans were built against.
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
// cache directory flushes on publish, and a restarted server (or Program)
// starts disk-warm from what sessions built.
func TestPersistServeFlushOnPublish(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Indexed: true, CacheDir: dir}

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
}
