package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
)

// serveMixed: reads beside writes on a materialising server. One reader
// goroutine queries in a closed loop; one writer goroutine ingests on a
// fixed schedule, alternately inserting and deleting the same batch of
// Assign edges so the state is periodic.
type serveMixed struct {
	cfg             *config
	in              *cspaInput
	present, absent relState
	cacheDir        string
}

func (*serveMixed) name() string { return "serve_mixed" }

func (w *serveMixed) cleanup() {
	if w.cacheDir != "" {
		os.RemoveAll(w.cacheDir)
	}
}

func (w *serveMixed) prepare(cfg *config) (map[string]relState, error) {
	w.cfg = cfg
	w.in = genCSPA(cfg.sizes, cfg.seed)
	states, err := expect(cfg, w.name(), map[string]func() *analysis.Built{
		"present": func() *analysis.Built { return buildCSPA(analysis.HandOptimized, w.in, w.in.churn) },
		"absent":  func() *analysis.Built { return buildCSPA(analysis.HandOptimized, w.in, nil) },
	})
	if err != nil {
		return nil, err
	}
	w.present, w.absent = states["present"], states["absent"]
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	w.cacheDir, err = os.MkdirTemp(cfg.tmpDir, "serve-cache-")
	return states, err
}

type serveInst struct {
	w      *serveMixed
	b      *analysis.Built
	assign *core.Relation
	srv    *core.Server
}

// setup is a restart: a new Program serves from the cache directory the
// previous repetition filled, answers a first query, and absorbs a first
// insert and delete batch.
func (w *serveMixed) setup(tr *tracer) (instance, error) {
	s := &serveInst{w: w, b: buildCSPA(analysis.HandOptimized, w.in, nil)}
	s.assign = s.b.P.Relation("Assign", 2)
	opts := engineOpts()
	opts.Workers, opts.Materialize, opts.CacheDir = 2, true, w.cacheDir
	sp := tr.root("core.serve_open")
	srv, err := s.b.P.Serve(opts)
	tr.finish(sp, "", nil)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if _, _, err := s.read(tr); err != nil {
		return nil, fmt.Errorf("first op: %w", err)
	}
	for _, insert := range []bool{true, false} {
		if _, err := s.writeHalf(tr, time.Now(), insert); err != nil {
			return nil, fmt.Errorf("first aux: %w", err)
		}
	}
	return s, nil
}

// answer opens a session on the current epoch and queries it, under parent.
// The query span is named after what the engine did: a derivation ran the
// fixpoint, a memo answer did not.
func (s *serveInst) answer(tr *tracer, parent int) (*core.Session, error) {
	sp := tr.start(parent, "core.session_open")
	sess, err := s.srv.Session()
	tr.finish(sp, "", nil)
	if err != nil {
		return nil, err
	}
	sp = tr.start(parent, "core.query")
	res, err := sess.Query()
	if err != nil {
		tr.finish(sp, "", nil)
		sess.Close()
		return nil, err
	}
	if sp >= 0 {
		name, counts := "core.query_memo", map[string]float64(nil)
		if res.Interp.Iterations > 0 {
			name, counts = "core.query_derive", runCounts(res)
		}
		tr.finish(sp, name, counts)
	}
	return sess, nil
}

// wantFor returns the state the session's epoch must hold: the batch is
// either wholly present or wholly absent in any published epoch.
func (s *serveInst) wantFor(sess *core.Session) relState {
	t := s.w.in.churn[0]
	if sess.Contains(s.assign, t[0], t[1]) {
		return s.w.present
	}
	return s.w.absent
}

// read is the reader's op: session, query, row-count check, close. It also
// reports whether the op was traced: the writer switches the tracer while
// reads are in flight, and a read is traced as a whole or not at all.
func (s *serveInst) read(tr *tracer) (lat time.Duration, traced bool, err error) {
	root := tr.root("op")
	t0 := time.Now()
	sess, err := s.answer(tr, root)
	if err == nil {
		err = check(sess.Catalog(), s.wantFor(sess), false)
		sp := tr.start(root, "core.session_close")
		sess.Close()
		tr.finish(sp, "", nil)
	}
	lat = time.Since(t0)
	tr.finish(root, "", nil)
	return lat, root >= 0, err
}

// writeHalf is half a writer cycle: ingest the batch (insert or delete),
// publish, and take the first answer from the new epoch. Its latency runs
// from when the half was due, so time it spent waiting behind a late
// predecessor counts.
func (s *serveInst) writeHalf(tr *tracer, due time.Time, insert bool) (time.Duration, error) {
	root := tr.root("aux_half")
	defer func() { tr.finish(root, "", nil) }()
	sp := tr.start(root, "core.ingest_tx")
	_, err := s.srv.IngestTx(batchTx(s.b.P, s.assign, s.w.in.churn, insert))
	tr.finish(sp, "", nil)
	if err != nil {
		return 0, err
	}
	sp = tr.start(root, "core.publish")
	s.srv.Publish()
	tr.finish(sp, "", nil)
	sess, err := s.answer(tr, root)
	if err != nil {
		return 0, err
	}
	lat := time.Since(due)
	defer sess.Close()
	want := s.w.absent
	if insert {
		want = s.w.present
	}
	return lat, check(sess.Catalog(), want, true)
}

func (s *serveInst) timed(d time.Duration, tr *tracer) *phase {
	period := s.w.cfg.writerPeriod
	cycles := int(d / (2 * period))
	p := &phase{}
	before := s.srv.Stats()

	type readDone struct {
		sample
		err error
	}
	var reads []readDone
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			lat, traced, err := s.read(tr)
			reads = append(reads, readDone{sample{float64(lat) / 1e6, traced}, err})
		}
	}()

	t0 := time.Now()
	for c := 0; c < cycles; c++ {
		traced := tr.sample()
		var cycle time.Duration
		var err error
		for half, insert := range []bool{true, false} {
			due := t0.Add(time.Duration(2*c+half) * period)
			time.Sleep(time.Until(due))
			p.lateMs = append(p.lateMs, float64(time.Since(due))/1e6)
			p.attempted++
			lat, herr := s.writeHalf(tr, due, insert)
			if herr != nil {
				p.fail(herr)
				err = herr
			}
			cycle += lat
		}
		if err == nil {
			p.aux = append(p.aux, sample{float64(cycle) / 1e6, traced})
		}
		p.cycles++
		if traced {
			p.tracedCycles++
		}
	}
	// The reader runs to the end of the writer's schedule, so its rate is
	// over whole writer cycles, the quiet tail of the last one included.
	time.Sleep(time.Until(t0.Add(time.Duration(2*cycles) * period)))
	stop.Store(true)
	wg.Wait()
	p.wall = time.Since(t0)

	for _, r := range reads {
		p.attempted++
		if r.err != nil {
			p.fail(r.err)
			continue
		}
		p.op = append(p.op, r.sample)
	}

	after := s.srv.Stats()
	p.serverCounts = map[string]float64{
		"core.memo_hits":           float64(after.MemoHits - before.MemoHits),
		"core.warm_starts":         float64(after.WarmStarts - before.WarmStarts),
		"core.materialized_epochs": float64(after.MaterializedEpochs - before.MaterializedEpochs),
	}
	return p
}
