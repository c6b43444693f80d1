package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

// wantFixtureError fails unless err is the fixture rule's error naming the
// backend and the setting that made it refuse.
func wantFixtureError(t *testing.T, err error, b jit.Backend, setting string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%v with %s: accepted, want the fixture error", b, setting)
	}
	if msg := err.Error(); !strings.Contains(msg, "backend "+b.String()) || !strings.Contains(msg, setting) {
		t.Fatalf("%v with %s: error %q names neither the backend nor the setting", b, setting, msg)
	}
}

// fixtureRunOnly is a fixture backend's cell of a serving matrix: Serve
// refuses the backend, and a plain Run of the cell's options derives want.
func fixtureRunOnly(t *testing.T, b *analysis.Built, opts core.Options, want []string) {
	t.Helper()
	_, err := b.P.Serve(opts)
	wantFixtureError(t, err, opts.JIT.Backend, "Serve")
	if _, err := b.P.Run(opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := relationRows(b.Output); !equalRows(got, want) {
		t.Fatalf("run: %d output rows, oracle %d", len(got), len(want))
	}
}

// TestFixtureBackendsRunOnly: irgen, bytecode and quotes are refused by
// Serve, by Apply, and by a Run with a worker pool, each with an error
// naming the backend and the setting, and a refused call leaves the Program
// as it was. A Run with a cache directory is refused for every backend,
// before anything touches the directory. A plain Run of each matches the
// naive oracle.
func TestFixtureBackendsRunOnly(t *testing.T) {
	build := func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 40, 90, 23) }
	oracle := build()
	if _, err := oracle.P.Run(core.Options{Naive: true}); err != nil {
		t.Fatal(err)
	}
	want := relationRows(oracle.Output)

	for _, be := range []jit.Backend{jit.BackendIRGen, jit.BackendBytecode, jit.BackendQuotes} {
		t.Run(be.String(), func(t *testing.T) {
			b := build()
			base := core.Options{Indexed: true, JIT: jit.Config{Backend: be, Granularity: jit.GranSPJ}}
			_, err := b.P.Serve(base)
			wantFixtureError(t, err, be, "Serve")
			tx := b.P.NewTx()
			tx.InsertTuple(b.P.Relation("edge", 2), []storage.Value{0, 999})
			_, err = b.P.Apply(tx, base)
			wantFixtureError(t, err, be, "Apply")
			for _, c := range []struct {
				setting string
				set     func(o *core.Options)
			}{
				{"Shards", func(o *core.Options) { o.Shards = 8 }},
				{"ParallelUnions", func(o *core.Options) { o.ParallelUnions = true }},
				{"AdaptiveFanout", func(o *core.Options) { o.AdaptiveFanout = true }},
			} {
				opts := base
				c.set(&opts)
				_, err := b.P.Run(opts)
				wantFixtureError(t, err, be, c.setting)
			}
			opts := base
			opts.CacheDir = filepath.Join(t.TempDir(), "cache")
			if _, err := b.P.Run(opts); err == nil || !strings.Contains(err.Error(), "refuses CacheDir") {
				t.Fatalf("Run with CacheDir: %v, want the CacheDir refusal", err)
			}
			if _, err := os.Stat(opts.CacheDir); !os.IsNotExist(err) {
				t.Fatalf("a refused CacheDir Run touched the cache directory: %v", err)
			}

			res, err := b.P.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if got := relationRows(b.Output); !equalRows(got, want) {
				t.Fatalf("%d output rows, naive oracle %d", len(got), len(want))
			}
			if be != jit.BackendIRGen && res.JIT.Compilations == 0 {
				t.Fatal("the backend compiled nothing")
			}
		})
	}
}
