// Command caracbench regenerates every table and figure of the paper's
// evaluation section (§VI) on the synthetic datasets:
//
//	caracbench table1            # Table I : interpreted execution times
//	caracbench table2            # Table II: DLX / Soufflé / Carac comparison
//	caracbench fig5              # Fig 5   : code-generation time per granularity
//	caracbench fig6              # Fig 6   : macro speedups over unoptimized
//	caracbench fig7              # Fig 7   : micro speedups over unoptimized
//	caracbench fig8              # Fig 8   : macro speedups over hand-optimized
//	caracbench fig9              # Fig 9   : micro speedups over hand-optimized
//	caracbench fig10             # Fig 10  : AOT (macro staging) vs online
//	caracbench ablation          # design-choice sweeps: ordering, freshness, granularity
//	caracbench all               # everything above
//
// Shared flags: -scale small|medium|full, -reps N, -warmups N, -timeout D,
// -cxx D (simulated external compile latency for the Soufflé baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"carac/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "caracbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("caracbench", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "medium", "dataset scale: small|medium|full")
	reps := fs.Int("reps", 3, "measured repetitions per cell (median reported)")
	warmups := fs.Int("warmups", 1, "unmeasured warmup runs per cell")
	timeout := fs.Duration("timeout", 120*time.Second, "per-run timeout (timed-out cells report DNF)")
	cxx := fs.Duration("cxx", 0, "simulated external compile latency for Soufflé baseline modes (0 = default)")
	verbose := fs.Bool("v", false, "print progress to stderr")

	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing experiment (table1|table2|fig5|fig6|fig7|fig8|fig9|fig10|ablation|all)")
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	suite := bench.NewSuite(scale, bench.Options{
		Warmups: *warmups,
		Reps:    *reps,
		Timeout: *timeout,
	})
	if *verbose {
		suite.Verbose = os.Stderr
	}

	experiments := map[string]func() *bench.Table{
		"table1":   suite.Table1,
		"table2":   func() *bench.Table { return suite.Table2(*cxx) },
		"fig5":     suite.Fig5,
		"fig6":     suite.Fig6,
		"fig7":     suite.Fig7,
		"fig8":     suite.Fig8,
		"fig9":     suite.Fig9,
		"fig10":    suite.Fig10,
		"ablation": suite.Ablation,
	}
	titles := map[string]string{
		"table1":   "Table I — average execution time (s) of interpreted Carac queries",
		"table2":   "Table II — average execution time (s) of DLX, Soufflé, and Carac",
		"fig5":     "Figure 5 — execution time of code generation",
		"fig6":     "Figure 6 — macrobenchmarks compared to unoptimized (speedup)",
		"fig7":     "Figure 7 — microbenchmarks compared to unoptimized (speedup)",
		"fig8":     "Figure 8 — macrobenchmarks compared to hand-optimized (speedup)",
		"fig9":     "Figure 9 — microbenchmarks compared to hand-optimized (speedup)",
		"fig10":    "Figure 10 — ahead-of-time and online compilation (speedup over unoptimized)",
		"ablation": "Ablations — ordering algorithm, freshness threshold, granularity ladder",
	}

	order := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "ablation"}
	runOne := func(name string) error {
		f, ok := experiments[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Printf("## %s\n", titles[name])
		fmt.Printf("   (scale=%s reps=%d warmups=%d timeout=%v)\n\n", *scaleFlag, *reps, *warmups, *timeout)
		f().Write(os.Stdout)
		fmt.Println()
		return nil
	}
	if cmd == "all" {
		for _, name := range order {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(cmd)
}
