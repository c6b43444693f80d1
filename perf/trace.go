package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Parent is the id of the span
// that caused it, -1 for a root. Every op of a workload is one root span with
// a child around each core call the driver makes; every probe is a child of a
// "probe/<layer>" root.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until write. A nil tracer, or one switched
// off, records nothing: root returns -1 and start and finish ignore -1, so
// the untraced run pays one branch per call site.
type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool
	cycles   int        // timed cycles seen by sample
	mu       sync.Mutex // serve_mixed records from two goroutines
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// sample is called by a workload's driver at the start of every timed cycle:
// it switches the tracer on for every fourth cycle of the run and reports
// whether it is on. The engine's counters repeat exactly and a span's median
// needs few samples, so three cycles in four go to the untraced latencies.
func (t *tracer) sample() bool {
	if t == nil {
		return false
	}
	t.cycles++
	on := t.cycles%4 == 1
	t.on.Store(on)
	return on
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// root opens a span with no parent; -1 when the tracer is off.
func (t *tracer) root(name string) int {
	if !t.enabled() {
		return -1
	}
	return t.open(-1, name)
}

// start opens a child of parent. Whether an op is traced is decided once,
// where its root is opened: under an unrecorded root (-1) nothing is
// recorded, and under a recorded one everything is, even when another
// goroutine switches the tracer meanwhile.
func (t *tracer) start(parent int, name string) int {
	if parent < 0 {
		return -1
	}
	return t.open(parent, name)
}

func (t *tracer) open(parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// finish closes span id, attaching counts read at that boundary. A non-empty
// name replaces the one given at start, for spans whose kind is only known
// from the call's result (a memo-served query against a derived one).
func (t *tracer) finish(id int, name string, counts map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id]
	s.EndNs = now
	if name != "" {
		s.Name = name
	}
	s.Counts = counts
	t.mu.Unlock()
}

// durationsMs returns the duration of every finished span called name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover. The driver's children of one span never overlap
// (each op runs on one goroutine), so covered time is the sum of their
// durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
