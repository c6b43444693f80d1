package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// contractFile is the part of BENCHMARK.json the A/A run reads.
type contractFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readContract reads BENCHMARK.json; an empty path looks in the working
// directory (perf/run.sh runs from the root) and then one up (go run -C perf).
func readContract(path string) (*contractFile, error) {
	b, err := os.ReadFile(cmp.Or(path, "BENCHMARK.json"))
	if err != nil && path == "" {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var c contractFile
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// runChild runs this binary once on one workload and parses the result
// object off the last line of its output.
func runChild(name string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return &res, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(n=4)
// (exclusive method), which is what the pipeline computes.
func spread(xs []float64) (median, iqrShare float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	median = quantile(s, 0.5)
	if len(s) < 2 {
		return median, 0
	}
	return median, (q(3) - q(1)) / median
}

// runAA is the A/A check the pipeline applies to a benchmark, run by the
// benchmark on itself: two sets of n runs of every workload, each run at its
// own seed (the same seeds in both sets). A metric passes when its spread in
// either set stays within its bound (setup_s is exempt from that, as in the
// pipeline) and the second set's median is not worse than the first's by
// more than the bound. Output is the Markdown committed as BASELINE.md.
func runAA(cfg *config, n int) error {
	c, err := readContract("")
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	fmt.Printf("# A/A baseline\n\n")
	fmt.Printf("- machine: %s, %s/%s, nproc %d\n", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	fmt.Printf("- %s, GOMAXPROCS %d, GC percent 100\n", runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Printf("- two sets of %d runs per workload, seeds %d..%d, %d s per run\n\n",
		n, cfg.seed, cfg.seed+int64(n)-1, c.RunSeconds)
	fmt.Printf("| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | verdict |\n")
	fmt.Printf("|---|---|---|---:|---:|---:|---:|---:|---:|---|\n")

	failures := 0
	for _, name := range workloadNames {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 0; i < n; i++ {
				res, err := runChild(name, cfg.seed+int64(i), c.RunSeconds)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", name, cfg.seed+int64(i), res.Failed, res.Attempted)
				}
				for m, v := range res.Metrics {
					sets[set][m] = append(sets[set][m], v.Value)
				}
			}
		}
		for _, m := range c.EndToEnd {
			medA, spA := spread(sets[0][m.Name])
			medB, spB := spread(sets[1][m.Name])
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			var why []string
			if m.Name != "setup_s" && max(spA, spB) > m.Bound {
				why = append(why, "spread")
			}
			if worse > m.Bound {
				why = append(why, "median")
			}
			verdict := "PASS"
			if len(why) > 0 {
				verdict = "FAIL (" + strings.Join(why, ", ") + ")"
				failures++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f %% | %.2f %% | %.2f %% | %.0f %% | %s |\n",
				name, m.Name, m.Unit, medA, medB, 100*(medB-medA)/medA, 100*spA, 100*spB, 100*m.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metric(s) failed the A/A check", failures)
	}
	return nil
}
