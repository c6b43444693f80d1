// Tests for the default fan-out policy: with no parallel setting a Run pools
// the iterations whose previous iteration matched at least
// interp.PoolMatchRatio rows per δ row, and a pooled Run allocates about what
// a sequential one does. Workers is set explicitly, so the host's core count
// decides nothing.
package core_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/jit"
	"carac/internal/storage"
	"carac/internal/workloads"
)

// lambdaBlocking is configuration E of the benchmark: the lambda backend
// compiling per union, blocking.
var lambdaBlocking = jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll}

// TestFanoutPolicyPoolsCSPA: CSPA_150's heavy iterations match far more than
// 16 rows per δ row, so a default Run on two workers pools them — with the
// JIT off and with lambda units — and evaluates exactly what the same Run on
// one worker does, which never pools.
func TestFanoutPolicyPoolsCSPA(t *testing.T) {
	facts := datagen.CSPAGraph(150, 42)
	for name, jc := range map[string]jit.Config{"interp": {}, "lambda": lambdaBlocking} {
		run := func(workers int) *core.Result {
			b := analysis.CSPA(analysis.HandOptimized, facts)
			res, err := b.P.Run(core.Options{Indexed: true, Workers: workers, JIT: jc})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			return res
		}
		seq, pooled := run(1), run(2)
		if seq.Interp.MergeTasks != 0 || seq.Interp.SeqIters != seq.Interp.Iterations {
			t.Fatalf("%s: one worker pooled: %d lists folded, %d of %d iterations sequential",
				name, seq.Interp.MergeTasks, seq.Interp.SeqIters, seq.Interp.Iterations)
		}
		if pooled.Interp.MergeTasks == 0 || pooled.Interp.PooledIters == 0 {
			t.Fatalf("%s: two workers never pooled", name)
		}
		if pooled.Interp.SeqIters == 0 {
			t.Fatalf("%s: the first iteration pooled", name)
		}
		sameEvaluation(t, name, pooled, seq)
	}
}

// TestFanoutPolicyKeepsTCSequential: transitive closure matches about three
// rows per δ row, so neither a default Run of TC 700/2100 nor an Apply
// delete and re-insert on TC 400/1200 ever pools, on two workers.
func TestFanoutPolicyKeepsTCSequential(t *testing.T) {
	opts := core.Options{Indexed: true, Workers: 2}
	sequential := func(what string, r *core.Result) {
		t.Helper()
		if st := r.Interp; st.MergeTasks != 0 || st.SeqIters != st.Iterations {
			t.Fatalf("%s pooled: %d lists folded, %d of %d iterations sequential", what, st.MergeTasks, st.SeqIters, st.Iterations)
		}
	}
	b := workloads.TransitiveClosure(analysis.HandOptimized, 700, 2100, 7)
	res, err := b.P.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	sequential("TC 700/2100", res)

	b = workloads.TransitiveClosure(analysis.HandOptimized, 400, 1200, 7)
	if _, err := b.P.Run(opts); err != nil {
		t.Fatal(err)
	}
	edge := b.P.Relation("edge", 2)
	var batch [][]storage.Value
	edge.Each(func(row []storage.Value) bool {
		batch = append(batch, append([]storage.Value(nil), row...))
		return len(batch) < 8
	})
	for _, insert := range []bool{false, true} {
		tx := b.P.NewTx()
		for _, row := range batch {
			if insert {
				tx.InsertTuple(edge, row)
			} else {
				tx.DeleteTuple(edge, row)
			}
		}
		ar, err := b.P.Apply(tx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Cold {
			t.Fatalf("insert %v: Apply demoted to a cold Run", insert)
		}
		sequential(fmt.Sprintf("Apply (insert %v)", insert), ar.Result)
	}
}

// TestFanoutPolicyExemptions: the runs the policy never pools — an
// asynchronous lambda Run (its pool tasks would interpret while a compile is
// in flight, never yielding to the unit), the paper's code-generation
// fixtures and Naive evaluation — do not pool on CSPA_150 at two workers,
// where a default Run does, and succeed.
func TestFanoutPolicyExemptions(t *testing.T) {
	facts := datagen.CSPAGraph(150, 42)
	for name, opts := range map[string]core.Options{
		"async":    {JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll, Async: true}},
		"irgen":    {JIT: jit.Config{Backend: jit.BackendIRGen, Granularity: jit.GranUnionAll}},
		"bytecode": {JIT: jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranUnionAll}},
		"quotes":   {JIT: jit.Config{Backend: jit.BackendQuotes, Granularity: jit.GranUnionAll}},
		"naive":    {Naive: true},
	} {
		opts.Indexed, opts.Workers, opts.Timeout = true, 2, time.Minute
		b := analysis.CSPA(analysis.HandOptimized, facts)
		res, err := b.P.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Interp.MergeTasks != 0 || res.Interp.PooledIters != 0 {
			t.Fatalf("%s pooled: %d lists folded", name, res.Interp.MergeTasks)
		}
	}
}

// TestPooledRunAlloc pins the pool's allocation budget: ten warm default
// Runs of CSPA_150 on two workers, which pool, allocate at most 3 % more
// than the same Runs on one worker — with the JIT off and with lambda units.
// The pool's state lives on the Program and the interpreter builds every
// plan into one, so what a pooled Run adds is a goroutine and its closure
// per barrier and, with lambda, the task units' compilations. Each count is
// the least of three windows of ten Runs: the runtime allocates a
// goroutine's descriptor when the spawning processor has none free, which
// depends on where the last one exited.
func TestPooledRunAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops scratch slabs at random")
	}
	facts := datagen.CSPAGraph(150, 42)
	for name, jc := range map[string]jit.Config{"interp": {}, "lambda": lambdaBlocking} {
		var progs [2]*analysis.Built
		var opts [2]core.Options
		for i := range progs {
			progs[i] = analysis.CSPA(analysis.HandOptimized, facts)
			opts[i] = core.Options{Indexed: true, Workers: i + 1, JIT: jc}
			for range 3 {
				if _, err := progs[i].P.Run(opts[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		bytes := [2]uint64{^uint64(0), ^uint64(0)}
		for range 3 {
			for i := range progs {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for range 10 {
					if _, err := progs[i].P.Run(opts[i]); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&m1)
				bytes[i] = min(bytes[i], m1.TotalAlloc-m0.TotalAlloc)
			}
		}
		res, err := progs[1].P.Run(opts[1])
		if err != nil {
			t.Fatal(err)
		}
		if res.Interp.MergeTasks == 0 {
			t.Fatalf("%s: the two-worker Runs never pooled", name)
		}
		t.Logf("%s: %d B per sequential Run, %d B per pooled Run", name, bytes[0]/10, bytes[1]/10)
		if float64(bytes[1]) > 1.03*float64(bytes[0]) {
			t.Fatalf("%s: ten pooled Runs allocate %d B, %.1f %% more than ten sequential ones (%d B)",
				name, bytes[1], 100*(float64(bytes[1])/float64(bytes[0])-1), bytes[0])
		}
	}
}
