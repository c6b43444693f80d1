package core

import (
	"runtime"
	"testing"
	"weak"

	"carac/internal/storage"
)

// TestServeSupersededFixpointsCollectable: an epoch's materialized fixpoint
// has one owner, the epoch. After any number of publish cycles with no open
// sessions, only the current epoch's fixpoint and the previous one (its
// warm-start input, prevMat) are reachable; every older one — the epochMat
// and the pinned rows under it — has been collected. The server restarts
// from the checkpoint its first run wrote: the restored first epoch's
// fixpoint goes like any other, and the relations the restore loaded rows
// into are garbage as soon as Serve returns.
func TestServeSupersededFixpointsCollectable(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Indexed: true, Materialize: true, CacheDir: dir}
	first, _ := buildTC(t, 40)
	if err := serveOnce(first, opts); err != nil {
		t.Fatal(err)
	}
	p, _ := buildTC(t, 40)
	var loaded []weak.Pointer[storage.Relation]
	p.loadHook = func(r *storage.Relation) { loaded = append(loaded, weak.Make(r)) }
	srv, err := p.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.loadHook = nil
	if st := srv.Stats(); st.Restored != 1 || len(loaded) != p.Catalog().NumPreds() {
		t.Fatalf("%+v, %d relations loaded: want the checkpoint restored", st, len(loaded))
	}
	edge := p.Relation("edge", 2)
	tc, _ := p.Catalog().PredByName("tc")

	const cycles = 8
	restored := srv.Epoch().mat.Load()
	mats := []weak.Pointer[epochMat]{weak.Make(restored)}
	rows := []weak.Pointer[storage.Value]{weak.Make(&restored.rows[tc.ID].Row(0)[0])}
	restored = nil
	runtime.GC()
	runtime.GC()
	for i, w := range loaded {
		if w.Value() != nil {
			t.Errorf("the restore's load relation %d is still reachable", i)
		}
	}
	for i := 1; i <= cycles; i++ {
		srv.Ingest(func() { edge.MustFact(1000+i, 1001+i) })
		srv.Publish()
		sess, err := srv.Session()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Query(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		m := srv.Epoch().mat.Load()
		if m == nil {
			t.Fatalf("cycle %d: epoch not materialized by its first query", i)
		}
		mats = append(mats, weak.Make(m))
		rows = append(rows, weak.Make(&m.rows[tc.ID].Row(0)[0]))
	}
	runtime.GC()
	runtime.GC()
	for i := range mats {
		want := i >= cycles-1
		if got := mats[i].Value() != nil; got != want {
			t.Errorf("fixpoint of cycle %d of %d reachable = %v, want %v", i, cycles, got, want)
		}
		if got := rows[i].Value() != nil; got != want {
			t.Errorf("pinned tc rows of cycle %d of %d reachable = %v, want %v", i, cycles, got, want)
		}
	}
	runtime.KeepAlive(srv)
}

// serveOnce serves p, derives its first epoch, and lets the server go.
func serveOnce(p *Program, opts Options) error {
	srv, err := p.Serve(opts)
	if err != nil {
		return err
	}
	sess, err := srv.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	_, err = sess.Query()
	return err
}
