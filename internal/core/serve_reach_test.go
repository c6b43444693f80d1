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
// and the pinned rows under it — has been collected.
func TestServeSupersededFixpointsCollectable(t *testing.T) {
	p, _ := buildTC(t, 40)
	srv, err := p.Serve(Options{Indexed: true, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	edge := p.Relation("edge", 2)
	tc, _ := p.Catalog().PredByName("tc")

	const cycles = 8
	var mats []weak.Pointer[epochMat]
	var rows []weak.Pointer[storage.Value]
	for i := 0; i < cycles; i++ {
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
		want := i >= cycles-2
		if got := mats[i].Value() != nil; got != want {
			t.Errorf("fixpoint of cycle %d of %d reachable = %v, want %v", i, cycles, got, want)
		}
		if got := rows[i].Value() != nil; got != want {
			t.Errorf("pinned tc rows of cycle %d of %d reachable = %v, want %v", i, cycles, got, want)
		}
	}
	runtime.KeepAlive(srv)
}
