package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/storage"
)

// relState is what a workload's database must hold in one state (for the
// workloads that toggle a batch: with it present or absent): the row count of
// every relation and an order-independent checksum of the output relation.
type relState struct {
	Rows     map[string]int `json:"rows"`
	Output   string         `json:"output"`
	Checksum string         `json:"checksum"`
}

// expectedFile is perf/expected.json: the reference outputs at the seed and
// sizes it names, computed by the naive interpreter (-write-expected).
type expectedFile struct {
	Seed      int64                          `json:"seed"`
	Sizes     sizes                          `json:"sizes"`
	Workloads map[string]map[string]relState `json:"workloads"`
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected returns the committed expectations for w when they were
// computed for exactly cfg's inputs, and nil otherwise.
func loadExpected(cfg *config, w string) map[string]relState {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil
	}
	if f.Seed != cfg.seed || f.Sizes != cfg.sizes {
		return nil
	}
	return f.Workloads[w]
}

func rowHash(t []storage.Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h ^= uint64(uint32(v))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// checksum is order-independent: the wrapping sum of the row hashes of the
// output relation.
func checksum(cat *storage.Catalog, output string) string {
	var sum uint64
	if pd, ok := cat.PredByName(output); ok {
		pd.Derived.Each(func(t []storage.Value) bool {
			sum += rowHash(t)
			return true
		})
	}
	return fmt.Sprintf("%016x", sum)
}

// observe reads a relState off a catalog's Derived relations.
func observe(cat *storage.Catalog, output string) relState {
	st := relState{Rows: map[string]int{}, Output: output, Checksum: checksum(cat, output)}
	for _, pd := range cat.Preds() {
		st.Rows[pd.Name] = pd.Derived.Len()
	}
	return st
}

// check compares what cat holds against want. full also recomputes the
// checksum; without it only the row counts are compared (the reader's
// per-query check in serve_mixed).
func check(cat *storage.Catalog, want relState, full bool) error {
	for _, pd := range cat.Preds() {
		if got, w := pd.Derived.Len(), want.Rows[pd.Name]; got != w {
			return fmt.Errorf("%s holds %d rows, want %d", pd.Name, got, w)
		}
	}
	if full {
		if got := checksum(cat, want.Output); got != want.Checksum {
			return fmt.Errorf("%s checksum %s, want %s", want.Output, got, want.Checksum)
		}
	}
	return nil
}

// oracle computes the reference state of a freshly built program with the
// naive interpreter: no semi-naive deltas, no JIT, no reordering, no plan
// cache and no shards. It keeps the hash indexes: without them tc_large's
// reference takes 74 s instead of 0.9 s.
func oracle(b *analysis.Built) (relState, error) {
	if _, err := b.P.Run(core.Options{Naive: true, Indexed: true, Timeout: 10 * time.Minute}); err != nil {
		return relState{}, fmt.Errorf("oracle: %w", err)
	}
	return observe(b.P.Catalog(), b.Output.Name()), nil
}

// writeExpected regenerates expected.json for cfg's seed at full size. It
// also runs CSPA's Unoptimized formulation through the oracle (slow: the
// naive interpreter does not reorder) and requires it to agree with
// HandOptimized, which is the reference every other run uses.
func writeExpected(cfg *config, path string) error {
	f := expectedFile{Seed: cfg.seed, Sizes: cfg.sizes, Workloads: map[string]map[string]relState{}}
	cfg.fresh = true
	for _, w := range workloadNames {
		states, err := newWorkload(w).prepare(cfg)
		if err != nil {
			return err
		}
		f.Workloads[w] = states
	}
	in := genCSPA(cfg.sizes, cfg.seed)
	unopt, err := oracle(buildCSPA(analysis.Unoptimized, in, nil))
	if err != nil {
		return err
	}
	if hand := f.Workloads["cspa_order"]["base"]; !sameState(unopt, hand) {
		return fmt.Errorf("oracle disagrees with itself: Unoptimized %v, HandOptimized %v", unopt, hand)
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sameState(a, b relState) bool {
	return a.Checksum == b.Checksum && a.Output == b.Output && maps.Equal(a.Rows, b.Rows)
}
