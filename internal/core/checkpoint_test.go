// Checkpoint tests: a materializing server over a CacheDir writes each
// derived epoch's fixpoint, and a restarted server over the same program and
// facts adopts it as its first epoch — the first query derives nothing, the
// first insert-only batch warm-starts from it — while a torn, truncated,
// corrupt or mismatched checkpoint means a cold start with a counted reason
// and the same rows.
package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

const checkpointFile = "fixpoint.ckpt"

var checkpointBuilds = []struct {
	name  string
	build func() *analysis.Built
}{
	{"TransitiveClosure", func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 80, 200, 42) }},
	{"CSPA", func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42)) }},
}

// namedRows snapshots every predicate of cat as sorted rows with symbols
// by name, so Programs that numbered their symbols differently compare.
func namedRows(p *core.Program, cat *storage.Catalog) map[string][]string {
	out := map[string][]string{}
	for _, pd := range cat.Preds() {
		rows := []string{}
		pd.Derived.Each(func(t []storage.Value) bool {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = p.Format(v)
			}
			rows = append(rows, strings.Join(parts, ","))
			return true
		})
		sort.Strings(rows)
		out[pd.Name] = rows
	}
	return out
}

// queryRows answers one query on a fresh session of srv's current epoch.
func queryRows(t *testing.T, p *core.Program, srv *core.Server) map[string][]string {
	t.Helper()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Query(); err != nil {
		t.Fatal(err)
	}
	return namedRows(p, sess.Catalog())
}

// runRows is the oracle: a Run of a fresh build.
func runRows(t *testing.T, b *analysis.Built) map[string][]string {
	t.Helper()
	if _, err := b.P.Run(core.Options{Indexed: true}); err != nil {
		t.Fatal(err)
	}
	return namedRows(b.P, b.P.Catalog())
}

func serveMat(t *testing.T, b *analysis.Built, opts core.Options) *core.Server {
	t.Helper()
	opts.Materialize = true
	srv, err := b.P.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// firstGroundRow returns a predicate holding ground rows and its first one.
func firstGroundRow(t *testing.T, p *core.Program) (*core.Relation, []storage.Value) {
	t.Helper()
	for _, pd := range p.Catalog().Preds() {
		if pd.Derived.Len() > 0 {
			return p.Relation(pd.Name, pd.Arity), append([]storage.Value(nil), pd.Derived.Row(0)...)
		}
	}
	t.Fatal("no ground rows")
	return nil, nil
}

// TestCheckpointRoundTrip: on TC and CSPA, under the push executor, lambda
// and the sharded pool, a server's first derivation writes the checkpoint;
// a restarted server adopts it, answers its first query with no
// derivation, and warm-starts its first insert-only batch from it, all
// equal to the Run oracle.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, w := range checkpointBuilds {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range []optCase{
				{"push", core.Options{Indexed: true}},
				{"lambda", core.Options{Indexed: true, JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}}},
				{"sharded", core.Options{Indexed: true, Shards: 4, Workers: 2}},
			} {
				opts := c.opts
				opts.CacheDir = t.TempDir()
				first := w.build()
				srv := serveMat(t, first, opts)
				want := queryRows(t, first.P, srv)
				if st := srv.Stats(); st.Restored != 0 || st.RestoreMisses != 1 || st.RestoreMiss != "absent" || st.Derivations != 1 {
					t.Fatalf("%s: server on an empty directory: %+v", c.name, st)
				}

				restarted := w.build()
				srv2 := serveMat(t, restarted, opts)
				if !srv2.Epoch().Materialized() {
					t.Fatalf("%s: the restarted server's first epoch is not materialized", c.name)
				}
				diffSnapshots(t, c.name+" restored", want, queryRows(t, restarted.P, srv2))
				if st := srv2.Stats(); st.Restored != 1 || st.RestoreMisses != 0 || st.Derivations != 0 || st.MemoHits != 1 {
					t.Fatalf("%s: restarted server: %+v, want restored and no derivation", c.name, st)
				}

				rel, tuple := firstGroundRow(t, restarted.P)
				slices.Reverse(tuple)
				tx := restarted.P.NewTx()
				tx.InsertTuple(rel, tuple)
				if _, err := srv2.IngestTx(tx); err != nil {
					t.Fatal(err)
				}
				srv2.Publish()
				got := queryRows(t, restarted.P, srv2)
				oracle := w.build()
				oracle.P.Relation(rel.Name(), len(tuple)).FactTuple(tuple)
				diffSnapshots(t, c.name+" insert after restore", runRows(t, oracle), got)
				if st := srv2.Stats(); st.WarmStarts != 1 || st.Derivations != 1 {
					t.Fatalf("%s: insert after restore: %+v, want one warm start", c.name, st)
				}
			}
		})
	}
}

// TestCheckpointCSPARestart is the CSPA_80 restart differential: a server
// that adopted a checkpoint and a cold server on the same facts answer the
// first epoch, an insert batch and a delete batch identically.
func TestCheckpointCSPARestart(t *testing.T) {
	build := func() *analysis.Built { return analysis.CSPA(analysis.HandOptimized, datagen.CSPAGraph(80, 42)) }
	opts := core.Options{Indexed: true, Workers: 2, CacheDir: t.TempDir()}
	first := build()
	queryRows(t, first.P, serveMat(t, first, opts))

	restored, cold := build(), build()
	rsrv := serveMat(t, restored, opts)
	opts.CacheDir = ""
	csrv := serveMat(t, cold, opts)
	if st := rsrv.Stats(); st.Restored != 1 {
		t.Fatalf("not restored: %+v", st)
	}
	diffSnapshots(t, "first epoch", queryRows(t, cold.P, csrv), queryRows(t, restored.P, rsrv))
	for _, insert := range []bool{true, false} {
		for _, s := range []struct {
			b   *analysis.Built
			srv *core.Server
		}{{restored, rsrv}, {cold, csrv}} {
			assign := s.b.P.Relation("Assign", 2)
			tx := s.b.P.NewTx()
			for i := int32(0); i < 6; i++ {
				row := []storage.Value{900 + i, i}
				if insert {
					tx.InsertTuple(assign, row)
				} else {
					tx.DeleteTuple(assign, row)
				}
			}
			if _, err := s.srv.IngestTx(tx); err != nil {
				t.Fatal(err)
			}
			s.srv.Publish()
		}
		diffSnapshots(t, map[bool]string{true: "insert", false: "delete"}[insert],
			queryRows(t, cold.P, csrv), queryRows(t, restored.P, rsrv))
	}
	if st := rsrv.Stats(); st.WarmStarts != 1 || st.ColdAfterDeletions != 1 || st.ColdNoPrevious != 0 {
		t.Fatalf("restored server: %+v, want a warm insert and a cold delete", st)
	}
	if st := csrv.Stats(); st.WarmStarts != 1 || st.ColdAfterDeletions != 1 || st.ColdNoPrevious != 1 {
		t.Fatalf("cold server: %+v, want a cold first epoch, a warm insert and a cold delete", st)
	}
}

// TestCheckpointFaults: a temp file torn by a crash between write and
// rename leaves the previous checkpoint loadable, and the restart that
// adopts it removes the torn file, which is older, while a temp file newer
// than the checkpoint — a live writer's — survives; a truncated or
// bit-flipped checkpoint is a "corrupt" cold start with the right rows, and
// the cold derivation writes a good checkpoint over it.
func TestCheckpointFaults(t *testing.T) {
	build := func() *analysis.Built { return workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7) }
	want := runRows(t, build())
	for _, c := range []struct {
		name    string
		mangle  func(dir string, b []byte) error
		restore bool
	}{
		{"torn-temp", func(dir string, b []byte) error {
			ck, err := os.Stat(filepath.Join(dir, checkpointFile))
			if err != nil {
				return err
			}
			for name, age := range map[string]time.Duration{".tmp-crashed": -time.Minute, ".tmp-live": time.Minute} {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
					return err
				}
				at := ck.ModTime().Add(age)
				if err := os.Chtimes(path, at, at); err != nil {
					return err
				}
			}
			return nil
		}, true},
		{"truncated", func(dir string, b []byte) error {
			return os.WriteFile(filepath.Join(dir, checkpointFile), b[:len(b)-len(b)/3], 0o644)
		}, false},
		{"bitflip", func(dir string, b []byte) error {
			b[len(b)/2] ^= 0x10
			return os.WriteFile(filepath.Join(dir, checkpointFile), b, 0o644)
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := core.Options{Indexed: true, CacheDir: t.TempDir()}
			first := build()
			queryRows(t, first.P, serveMat(t, first, opts))
			b, err := os.ReadFile(filepath.Join(opts.CacheDir, checkpointFile))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.mangle(opts.CacheDir, b); err != nil {
				t.Fatal(err)
			}
			for i, restore := range []bool{c.restore, true} {
				next := build()
				srv := serveMat(t, next, opts)
				if c.name == "torn-temp" {
					_, crashed := os.Stat(filepath.Join(opts.CacheDir, ".tmp-crashed"))
					_, live := os.Stat(filepath.Join(opts.CacheDir, ".tmp-live"))
					if !os.IsNotExist(crashed) || live != nil {
						t.Fatalf("restart %d: the crashed temp file's stat says %v, the live one's %v; want it swept and the live one kept", i, crashed, live)
					}
				}
				diffSnapshots(t, c.name, want, queryRows(t, next.P, srv))
				st := srv.Stats()
				if restore {
					if st.Restored != 1 || st.Derivations != 0 {
						t.Fatalf("restart %d: %+v, want the checkpoint adopted", i, st)
					}
				} else if st.Restored != 0 || st.RestoreMiss != "corrupt" || st.Derivations != 1 {
					t.Fatalf("restart %d: %+v, want a corrupt miss and a cold derivation", i, st)
				}
			}
		})
	}
}

// TestCheckpointMisses: a checkpoint written for another rule program or
// other ground facts is a cold start with that reason and the right rows,
// and so is a checkpoint a newer server wrote for an older epoch's facts.
func TestCheckpointMisses(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Indexed: true, CacheDir: dir}
	tc := func(form analysis.Formulation, edges int) *analysis.Built {
		return workloads.TransitiveClosure(form, 60, edges, 7)
	}
	first := tc(analysis.HandOptimized, 150)
	queryRows(t, first.P, serveMat(t, first, opts))
	written, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		miss  string
		build func() *analysis.Built
	}{
		{"program", func() *analysis.Built { return tc(analysis.Unoptimized, 150) }},
		{"facts", func() *analysis.Built { return tc(analysis.HandOptimized, 151) }},
	} {
		opts.CacheDir = t.TempDir() // a cold derivation replaces the checkpoint
		if err := os.WriteFile(filepath.Join(opts.CacheDir, checkpointFile), written, 0o644); err != nil {
			t.Fatal(err)
		}
		b := c.build()
		srv := serveMat(t, b, opts)
		diffSnapshots(t, c.miss, runRows(t, c.build()), queryRows(t, b.P, srv))
		if st := srv.Stats(); st.Restored != 0 || st.RestoreMiss != c.miss || st.Derivations != 1 {
			t.Fatalf("%s: %+v, want a %q miss", c.miss, st, c.miss)
		}
	}
}

// TestCheckpointWrittenByWinner: the checkpoint is written by the query
// that derives an epoch, not by Serve or Publish; a timed-out derivation
// writes nothing; and an older epoch derived after a newer one was written
// does not overwrite it.
func TestCheckpointWrittenByWinner(t *testing.T) {
	opts := core.Options{Indexed: true, CacheDir: t.TempDir()}
	path := filepath.Join(opts.CacheDir, checkpointFile)
	b := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	srv := serveMat(t, b, opts)
	old, err := srv.Session() // pinned to the first epoch, not yet derived
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	edge := b.P.Relation("edge", 2)
	srv.Ingest(func() { edge.MustFact(500, 501) })
	srv.Publish()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Serve or Publish wrote a checkpoint: %v", err)
	}
	newer := queryRows(t, b.P, srv)
	if _, err := old.Query(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Derivations != 2 {
		t.Fatalf("%+v, want both epochs derived", st)
	}
	next := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	next.P.Relation("edge", 2).MustFact(500, 501)
	nsrv := serveMat(t, next, opts)
	diffSnapshots(t, "newest epoch", newer, queryRows(t, next.P, nsrv))
	if st := nsrv.Stats(); st.Restored != 1 {
		t.Fatalf("%+v: the older epoch's derivation replaced the newer checkpoint", st)
	}

	for n := 300; n <= 4800; n *= 2 {
		opts := core.Options{Indexed: true, CacheDir: t.TempDir(), Timeout: time.Millisecond}
		chain := workloads.TransitiveClosure(analysis.HandOptimized, n, 0, 1)
		for i := 0; i < n; i++ {
			chain.P.Relation("edge", 2).MustFact(i, i+1)
		}
		sess, err := serveMat(t, chain, opts).Session()
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Query()
		sess.Close()
		if err == nil {
			continue
		}
		if !errors.Is(err, interp.ErrCancelled) {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(opts.CacheDir, checkpointFile)); !os.IsNotExist(err) {
			t.Fatalf("a timed-out derivation wrote a checkpoint: %v", err)
		}
		return
	}
	t.Fatal("no derivation timed out")
}

// TestCheckpointCarriesSnapshot: the restored materialization carries the
// post-fixpoint statistics the writer captured.
func TestCheckpointCarriesSnapshot(t *testing.T) {
	opts := core.Options{Indexed: true, CacheDir: t.TempDir()}
	first := workloads.TransitiveClosure(analysis.HandOptimized, 40, 90, 3)
	srv := serveMat(t, first, opts)
	queryRows(t, first.P, srv)
	wantStats := srv.Epoch().MaterializedStats()

	next := workloads.TransitiveClosure(analysis.HandOptimized, 40, 90, 3)
	nsrv := serveMat(t, next, opts)
	got := nsrv.Epoch().MaterializedStats()
	if got == nil {
		t.Fatal("the restored epoch carries no statistics")
	}
	if got.CapturedEpoch != nsrv.Epoch().Generation() {
		t.Errorf("restored statistics stamped %d, epoch generation %d", got.CapturedEpoch, nsrv.Epoch().Generation())
	}
	for _, pd := range next.P.Catalog().Preds() {
		if g, w := got.Card(pd.ID, ir.SrcDerived), wantStats.Card(pd.ID, ir.SrcDerived); g != w || g == 0 {
			t.Errorf("restored cardinality of %s = %d, written %d", pd.Name, g, w)
		}
	}
}

// TestCheckpointSymbolOrder: a restarted Program that interned the same
// symbols in another order adopts the checkpoint with every symbol
// renumbered, and answers exactly the writer's rows.
func TestCheckpointSymbolOrder(t *testing.T) {
	names := []string{"ann", "bob", "cy", "dee", "eve", "fay", "gus"}
	build := func(reverse bool) *analysis.Built {
		p := core.NewProgram()
		edge, tc := p.Relation("edge", 2), p.Relation("tc", 2)
		x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")
		p.MustRule(tc.A(x, y), edge.A(x, y))
		p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
		for i := range names {
			j := i
			if reverse {
				j = len(names) - 1 - i
			}
			edge.MustFact(names[j], names[(j+1)%len(names)])
		}
		return &analysis.Built{P: p, Output: tc}
	}
	opts := core.Options{Indexed: true, CacheDir: t.TempDir()}
	first := build(false)
	want := queryRows(t, first.P, serveMat(t, first, opts))
	next := build(true)
	if a, b := first.P.Format(-1), next.P.Format(-1); a == b {
		t.Fatalf("both Programs interned %q first", a)
	}
	srv := serveMat(t, next, opts)
	diffSnapshots(t, "renumbered", want, queryRows(t, next.P, srv))
	if st := srv.Stats(); st.Restored != 1 || st.Derivations != 0 {
		t.Fatalf("%+v, want the checkpoint adopted", st)
	}
}

// TestCheckpointConcurrentWinners: sessions pinned to four epochs derive
// them at once; their writes serialize, and the newest epoch's checkpoint is
// the one left.
func TestCheckpointConcurrentWinners(t *testing.T) {
	opts := core.Options{Indexed: true, CacheDir: t.TempDir()}
	b := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	srv := serveMat(t, b, opts)
	edge := b.P.Relation("edge", 2)
	var sessions []*core.Session
	for i := 0; i < 4; i++ {
		sess, err := srv.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sessions = append(sessions, sess)
		srv.Ingest(func() { edge.MustFact(500+i, 501+i) })
		srv.Publish()
	}
	errs := make(chan error, len(sessions))
	for _, sess := range sessions {
		go func() {
			_, err := sess.Query()
			errs <- err
		}()
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The newest derived epoch holds the first three new edges.
	next := workloads.TransitiveClosure(analysis.HandOptimized, 60, 150, 7)
	for i := 0; i < 3; i++ {
		next.P.Relation("edge", 2).MustFact(500+i, 501+i)
	}
	nsrv := serveMat(t, next, opts)
	diffSnapshots(t, "newest epoch", namedRows(b.P, sessions[3].Catalog()), queryRows(t, next.P, nsrv))
	if st := nsrv.Stats(); st.Restored != 1 {
		t.Fatalf("%+v: an older epoch's checkpoint replaced the newest", st)
	}
}
