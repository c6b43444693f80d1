package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// config is one run's inputs and schedule.
type config struct {
	seed    int64 // relabels and shuffles the inputs
	sizes   sizes
	seconds float64 // how long a run measures: set-ups and timed cycles together
	tmpDir  string  // parent of serve_mixed's cache directory
	fresh   bool    // ignore expected.json and always run the oracle
	// writerPeriod is serve_mixed's open-loop schedule: one half-cycle
	// (insert or delete batch) is due every period.
	writerPeriod time.Duration
}

// A run is a sequence of rounds, each a fresh set-up followed by timed cycles
// on the instance that set-up built, for as long as -seconds lasts. A round's
// cycles get 1/roundShare of -seconds; with its set-up a round takes a little
// longer, so a run holds 9 to 10 of them. The host's slow phases last seconds:
// set-ups spread over the whole run do not all fall into one, as the same
// number made back to back would.
const roundShare = 12

func defaultConfig() *config {
	return &config{
		seed: 42, sizes: fullSizes, seconds: 30, tmpDir: ".bench_build/tmp",
		writerPeriod: 400 * time.Millisecond,
	}
}

// endToEnd lists the gated metrics with their units; BENCHMARK.json's
// end_to_end list is this list (a test holds them equal).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"alloc_mb_per_op", "MB"}, {"live_heap_mb", "MB"},
}

// workload is one of the benchmark's four input sets.
type workload interface {
	name() string
	// prepare generates the inputs from cfg's seed and returns the expected
	// database state(s), from expected.json when it was written for these
	// inputs and from the oracle otherwise. Not timed.
	prepare(cfg *config) (map[string]relState, error)
	// setup builds brand-new program state from the inputs in memory and
	// completes the first op and the first aux on it. This is what setup_s
	// times.
	setup(tr *tracer) (instance, error)
	// probes times the public functions of the layers this workload leans
	// on, over the workload's own inputs.
	probes(pb *prober) error
	// cleanup removes what prepare left on disk.
	cleanup()
}

// instance is live program state a timed phase runs on.
type instance interface {
	// timed runs ops for d. Given a tracer, it switches it on for every
	// fourth cycle (tracer.sample), so one phase yields both traced and
	// untraced latencies under the same host conditions.
	timed(d time.Duration, tr *tracer) *phase
}

// cycler is a single-driver workload's pair of operations. Each performs the
// engine call, checks its output, and returns the engine call's latency (the
// check is outside it).
type cycler interface {
	op(tr *tracer) (time.Duration, error)
	aux(tr *tracer) (time.Duration, error)
}

// sample is one operation's latency.
type sample struct {
	ms     float64
	traced bool
}

// phase is what a timed phase measured.
type phase struct {
	op, aux           []sample
	attempted, failed int
	wall              time.Duration
	// lateMs is how late the open-loop writer started each half-cycle.
	lateMs []float64
	// cycles and tracedCycles count the complete cycles; serverCounts are
	// serve_mixed's server-wide counters over all of them.
	cycles, tracedCycles int
	serverCounts         map[string]float64
	errs                 []error
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// add merges a later round's phase into p.
func (p *phase) add(q *phase) {
	p.op = append(p.op, q.op...)
	p.aux = append(p.aux, q.aux...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.wall += q.wall
	p.lateMs = append(p.lateMs, q.lateMs...)
	p.cycles += q.cycles
	p.tracedCycles += q.tracedCycles
	for k, v := range q.serverCounts {
		if p.serverCounts == nil {
			p.serverCounts = map[string]float64{}
		}
		p.serverCounts[k] += v
	}
	p.errs = append(p.errs, q.errs...)
}

// closedLoop drives a cycler from one goroutine for d: a cycle is one op then
// one aux, so that drift in the host hits both alike.
func closedLoop(c cycler, d time.Duration, tr *tracer) *phase {
	p := &phase{}
	start := time.Now()
	for time.Since(start) < d {
		traced := tr.sample()
		p.attempted += 2
		opLat, err := c.op(tr)
		if err != nil {
			p.fail(err)
		}
		auxLat, aerr := c.aux(tr)
		if aerr != nil {
			p.fail(aerr)
		}
		if err != nil || aerr != nil {
			continue
		}
		p.op = append(p.op, sample{float64(opLat) / 1e6, traced})
		p.aux = append(p.aux, sample{float64(auxLat) / 1e6, traced})
		p.cycles++
		if traced {
			p.tracedCycles++
		}
	}
	p.wall = time.Since(start)
	return p
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func latencies(ss []sample, traced bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.traced == traced {
			out = append(out, s.ms)
		}
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the driver's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []error
}

// measured is what the rounds of one run yield.
type measured struct {
	phase             // every round's timed phase, merged
	setups  []float64 // seconds per set-up
	opsPerS []float64 // per round: primary ops over its timed phase's wall time
	allocMB float64   // allocated during the timed phases
	liveMB  float64   // reachable after the last round, its instance still held
	// setupSpans is how many spans the traced first set-up recorded; the
	// timed phases' spans follow them.
	setupSpans int
}

// measure runs the rounds. Given a tracer it records the first set-up and
// every fourth cycle of the timed phases, and leaves the tracer off.
func measure(cfg *config, w workload, tr *tracer) (*measured, error) {
	m := &measured{}
	total := time.Duration(cfg.seconds * float64(time.Second))
	var inst instance
	start := time.Now()
	for r := 0; r == 0 || time.Since(start)+total/roundShare <= total; r++ {
		inst = nil
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		next, err := w.setup(tr)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		inst = next
		if r == 0 {
			m.setupSpans = tr.count()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := inst.timed(total/roundShare, tr)
		runtime.ReadMemStats(&after)
		tr.setOn(false)
		m.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		if len(p.op) > 0 {
			m.opsPerS = append(m.opsPerS, float64(len(p.op))/p.wall.Seconds())
		}
		m.add(p)
	}
	if len(m.op) == 0 || len(m.aux) == 0 {
		return nil, fmt.Errorf("%.1fs completed no cycle (%d ops failed: %v)", cfg.seconds, m.failed, m.errs)
	}
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(inst)
	m.liveMB = float64(live.HeapAlloc) / 1e6
	return m, nil
}

func (m *measured) result() *result {
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, errs: m.errs, Metrics: map[string]metric{}}
}

// runEndToEnd is the untraced run: expected outputs, the rounds, and the
// gated end-to-end metrics.
func runEndToEnd(cfg *config, w workload) (*result, error) {
	if _, err := w.prepare(cfg); err != nil {
		return nil, err
	}
	defer w.cleanup()
	m, err := measure(cfg, w, nil)
	if err != nil {
		return nil, err
	}
	res := m.result()
	res.Metrics["setup_s"] = metric{slices.Min(m.setups), "s"}
	res.Metrics["alloc_mb_per_op"] = metric{m.allocMB / float64(len(m.op)+len(m.aux)), "MB"}
	res.Metrics["live_heap_mb"] = metric{m.liveMB, "MB"}
	return res, nil
}
