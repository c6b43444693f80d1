// Command perf is the repository's benchmark: four workloads over the engine
// in internal/core, three gated end-to-end metrics per workload, and a traced
// run that times every layer from outside. README.md in this directory says
// what is measured and why; BENCHMARK.json at the repository root is the
// contract the numbers are gated by.
//
//	go run -C perf . -seed 42                      # everything, all workloads
//	go run -C perf . -workload tc_large -trace 1   # one traced run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

func main() {
	cfg := defaultConfig()
	workloadFlag := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs all, untraced then traced")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "relabels and shuffles the inputs, and picks nothing else")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics and writing .bench_build/trace-<workload>.json, 0 = untraced run printing the end-to-end metrics")
	writeExp := flag.String("write-expected", "", "regenerate the expected outputs from the naive interpreter into this file and exit")
	aa := flag.Int("aa", 0, "A/A mode: two sets of this many runs of every workload, one seed per run, compared against BENCHMARK.json's bounds")
	flag.Parse()

	// The reference box has two cores; pin the process to that shape so a
	// larger host measures the same program.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	if err := run(cfg, *workloadFlag, *trace == 1, *writeExp, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(cfg *config, name string, traced bool, writeExp string, aa int) error {
	switch {
	case writeExp != "":
		return writeExpected(cfg, writeExp)
	case aa > 0:
		return runAA(cfg, aa)
	case name == "":
		return runAll(cfg)
	case !slices.Contains(workloadNames, name):
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runOne(os.Stdout, cfg, name, traced, traceFile(name))
	if err != nil {
		return err
	}
	return emit(os.Stdout, res)
}

func traceFile(workload string) string { return ".bench_build/trace-" + workload + ".json" }

// runOne runs one workload once, traced (writing the span file traceOut) or
// not, and prints its metrics one per line: workload, metric, value, unit.
func runOne(out io.Writer, cfg *config, name string, traced bool, traceOut string) (*result, error) {
	w := newWorkload(name)
	var res *result
	var err error
	if traced {
		res, err = runTraced(cfg, w, traceOut)
	} else {
		res, err = runEndToEnd(cfg, w)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(out, "%-13s %-28s %14.4f %s\n", name, m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	fmt.Fprintf(out, "%-13s ops attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	for _, e := range res.errs {
		fmt.Fprintf(out, "%-13s failed op: %v\n", name, e)
	}
	return res, nil
}

// runAll is `perf -seed N`: every workload untraced, then traced, with one
// combined result whose metric names carry the workload.
func runAll(cfg *config) error {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runOne(os.Stdout, cfg, name, traced, traceFile(name))
			if err != nil {
				return err
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for m, v := range res.Metrics {
				all.Metrics[name+"/"+m] = v
			}
		}
	}
	return emit(os.Stdout, all)
}

// emit prints the result object as the last line of output and fails the
// process when any op failed its check.
func emit(out io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}
