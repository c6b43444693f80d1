package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"carac/internal/storage"
)

// smokeConfig is every workload at reduced size with sub-second phases. It
// leaves GOMAXPROCS alone: the suite must pass at 1 and at 4.
func smokeConfig(t *testing.T) *config {
	cfg := defaultConfig()
	cfg.sizes = smokeSizes
	cfg.seconds = 1
	cfg.tmpDir = t.TempDir()
	cfg.writerPeriod = 20 * time.Millisecond
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// printed parses runOne's metric lines into name → unit, failing on a name
// printed twice.
func printed(t *testing.T, out, workload string) map[string]string {
	t.Helper()
	units := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload {
			continue
		}
		if _, dup := units[f[1]]; dup {
			t.Errorf("%s: metric %s printed twice", workload, f[1])
		}
		units[f[1]] = f[3]
	}
	return units
}

// TestSmoke runs all four workloads, untraced and traced, and holds what
// they print against BENCHMARK.json: every metric exactly once, with its
// unit, under a well-formed name, and no failed op.
func TestSmoke(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			res, err := runOne(&buf, smokeConfig(t), name, traced, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed: %v", name, traced, res.Correct, res.Failed, res.Attempted, res.errs)
			}
			want := map[string]string{}
			if traced {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := printed(t, buf.String(), name)
			for m, unit := range want {
				if got[m] != unit {
					t.Errorf("%s traced=%v: metric %s printed with unit %q, want %q", name, traced, m, got[m], unit)
				}
			}
			for m := range got {
				if _, ok := want[m]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", name, traced, m)
				}
				if !metricName.MatchString(m) {
					t.Errorf("metric name %q is malformed", m)
				}
				if v := res.Metrics[m].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", name, m, v)
				}
			}
			if !traced {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestContract holds the lists in the code equal to BENCHMARK.json.
func TestContract(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the code", i, w.Name, workloadNames[i])
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the code %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the code %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		// Issue 12: a metric that does not repeat is demoted, not given a
		// bound above 10 %. setup_s cannot be demoted (the pipeline requires
		// it) and does not repeat to 10 % (README.md), so it alone has the
		// pipeline's widest bound.
		if m.Bound > 0.10 && m.Name != "setup_s" {
			t.Errorf("end-to-end metric %s has bound %v, above 10 %%", m.Name, m.Bound)
		}
	}
}

// exactCounters are the per-layer metrics that are counts the engine
// returns: on a single-driver workload two runs must report the same value.
func exactCounters() []string {
	var out []string
	for _, m := range perLayer {
		if m.unit == "count" && !strings.HasPrefix(m.name, "plancache.disk") {
			out = append(out, m.name)
		}
	}
	return out
}

// TestCountersRepeat runs the three single-driver workloads twice in this
// process: the engine's counters per cycle are identical and the bytes
// allocated per op agree within the metric's 3 % bound.
func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"cspa_order", "tc_large", "stream_churn"} {
		var traces, plain [2]*result
		for i := range traces {
			var err error
			if traces[i], err = runTraced(smokeConfig(t), newWorkload(name), filepath.Join(t.TempDir(), "trace.json")); err != nil {
				t.Fatal(err)
			}
			if plain[i], err = runEndToEnd(smokeConfig(t), newWorkload(name)); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range exactCounters() {
			if a, b := traces[0].Metrics[m].Value, traces[1].Metrics[m].Value; a != b {
				t.Errorf("%s: %s = %v in one run and %v in the next", name, m, a, b)
			}
		}
		a, b := plain[0].Metrics["alloc_mb_per_op"].Value, plain[1].Metrics["alloc_mb_per_op"].Value
		if math.Abs(a-b)/a > 0.03 {
			t.Errorf("%s: alloc_mb_per_op = %v in one run and %v in the next", name, a, b)
		}
	}
}

// TestCorruptExpectationFailsOps feeds an instance a wrong expected checksum:
// every op must be counted as failed and none of them timed, and the run as
// a whole must be an error rather than a result.
func TestCorruptExpectationFailsOps(t *testing.T) {
	cfg := smokeConfig(t)
	w := &tcLarge{}
	if _, err := w.prepare(cfg); err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.(*batchPair).primary.want.Checksum = "0000000000000bad"
	p := inst.timed(200*time.Millisecond, nil)
	if p.failed == 0 || p.failed*2 != p.attempted {
		t.Errorf("%d of %d ops counted failed, want every primary op", p.failed, p.attempted)
	}
	if len(p.op) != 0 || len(p.aux) != 0 {
		t.Errorf("%d cycles with a failed op were timed", len(p.op))
	}

	// The same through the front door: a workload whose expectation is wrong
	// from the start cannot even complete its set-up.
	w.want.Rows = map[string]int{"tc": 1, "edge": 1}
	if _, err := w.setup(nil); err == nil {
		t.Error("set-up against a wrong expectation succeeded")
	}
	if err := emit(io.Discard, &result{Correct: false, Attempted: 2, Failed: 1, Metrics: map[string]metric{}}); err == nil {
		t.Error("a result with failed ops does not fail the process")
	}
}

// TestSeedsGiveIsomorphicInputs: two seeds give different facts (different
// checksums) of the same shape (equal row counts in every relation), and the
// oracle's closure size is what a breadth-first search finds.
func TestSeedsGiveIsomorphicInputs(t *testing.T) {
	cfg := smokeConfig(t)
	var states [2]relState
	for i, seed := range []int64{1, 2} {
		in := genTC(cfg.sizes.TCNodes, cfg.sizes.TCEdges, false, seed)
		st, err := oracle(buildTC(in, nil))
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
		if got := closureSize(in.edges); got != st.Rows["tc"] {
			t.Errorf("seed %d: oracle derives %d tc rows, breadth-first search %d", seed, st.Rows["tc"], got)
		}
	}
	if states[0].Checksum == states[1].Checksum {
		t.Error("seeds 1 and 2 give the same facts")
	}
	states[1].Checksum = states[0].Checksum
	if !sameState(states[0], states[1]) {
		t.Errorf("seeds 1 and 2 give differently shaped inputs: %v, %v", states[0].Rows, states[1].Rows)
	}
}

// closureSize counts the pairs (x, y) with a non-empty path from x to y.
func closureSize(edges [][]storage.Value) int {
	next := map[storage.Value][]storage.Value{}
	for _, e := range edges {
		next[e[0]] = append(next[e[0]], e[1])
	}
	total := 0
	for src := range next {
		seen := map[storage.Value]bool{}
		queue := append([]storage.Value(nil), next[src]...)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if seen[v] {
				continue
			}
			seen[v] = true
			queue = append(queue, next[v]...)
		}
		total += len(seen)
	}
	return total
}

// TestSelfTimes: a span's self time is its duration less its children's, so
// over one op's tree the self times add up to the root's duration. Checked on
// a hand-made tree and on every op of a real trace.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, StartNs: 50, EndNs: 90},
		{ID: 3, Parent: 2, StartNs: 60, EndNs: 70},
	}
	if got := selfTimes(spans); got[0] != 30 || got[1] != 30 || got[2] != 30 || got[3] != 10 {
		t.Errorf("self times %v, want [30 30 30 10]", got)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := runTraced(smokeConfig(t), newWorkload("serve_mixed"), path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var real []span
	if err := json.Unmarshal(b, &real); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(real)
	sum := make([]int64, len(real)) // per root: self times over its tree
	roots := 0
	for i, s := range real {
		if self[i] < 0 {
			t.Errorf("span %d (%s) has self time %d ns", i, s.Name, self[i])
		}
		root := i
		for real[root].Parent >= 0 {
			p := real[real[root].Parent]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, p.ID, p.Name)
			}
			root = p.ID
		}
		sum[root] += self[i]
	}
	for i, s := range real {
		if s.Parent >= 0 {
			continue
		}
		roots++
		// Only an op, a probe group and the set-up's Serve call are roots: a
		// core call recorded without its op would be a root too.
		if strings.HasPrefix(s.Name, "core.") && s.Name != "core.serve_open" {
			t.Errorf("root %d is %s: a child span lost its parent", i, s.Name)
		}
		if sum[i] != s.EndNs-s.StartNs {
			t.Errorf("root %d (%s): self times add up to %d ns, duration is %d ns", i, s.Name, sum[i], s.EndNs-s.StartNs)
		}
	}
	if roots == 0 {
		t.Error("trace has no root spans")
	}
}

// TestSpread pins the quartile method to Python's statistics.quantiles(n=4).
func TestSpread(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	med, sp := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if med != 3.5 || math.Abs(sp-1) > 1e-12 {
		t.Errorf("median %v spread %v, want 3.5 and 1", med, sp)
	}
}
