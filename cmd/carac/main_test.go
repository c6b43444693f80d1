package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tcProg = `
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
`

func TestRunWithFactsDir(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg)
	writeFile(t, dir, "edge.facts", "1\t2\n2\t3\n3\t4\n")

	if err := run([]string{"run", prog, "-facts", dir, "-stats=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllBackends(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg+"\nedge(1,2).\nedge(2,3).\n")
	for _, backend := range []string{"off", "irgen", "lambda", "bytecode", "quotes"} {
		if err := run([]string{"run", prog, "-backend", backend, "-stats=false"}); err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg)
	cases := [][]string{
		{},
		{"run"},
		{"run", filepath.Join(dir, "missing.dl")},
		{"run", prog, "-backend", "llvm"},
		{"run", prog, "-granularity", "molecule"},
		{"run", prog, "-aot", "everything"},
		{"run", prog, "-print", "nosuchrel"},
		// The interpreter caches no plans: the flags that asked it to are gone.
		{"run", prog, "-plancache"},
		{"run", prog, "-adaptive"},
		// A cache directory holds a serving checkpoint; run has no flag for it.
		{"run", prog, "-cache-dir", filepath.Join(dir, "cache")},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// The fixture backends run only sequentially, and never under serve.
	for _, args := range [][]string{
		{"serve", prog, "-backend", "bytecode"},
		{"run", prog, "-backend", "quotes", "-shards", "8"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "Run-only paper fixture") {
			t.Errorf("run(%v) = %v, want the fixture backend error", args, err)
		}
	}
	// serve refuses a setting only Serve refuses before it derives anything:
	// a warm Run first would have refused the shard count instead.
	args := []string{"serve", prog, "-backend", "bytecode", "-shards", "8"}
	if err := run(args); err == nil || !strings.Contains(err.Error(), "under Serve") {
		t.Errorf("run(%v) = %v, want the error to name Serve", args, err)
	}
}

func TestRunBadFactFile(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg)
	writeFile(t, dir, "edge.facts", "1\t2\t3\n") // wrong arity
	err := run([]string{"run", prog, "-facts", dir, "-stats=false"})
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("err = %v", err)
	}
	writeFile(t, dir, "edge.facts", "1\t2\n")
	writeFile(t, dir, "phantom.facts", "1\t2\n")
	if err := run([]string{"run", prog, "-facts", dir, "-stats=false"}); err == nil {
		t.Fatal("undeclared fact relation accepted")
	}
}

func TestRunSymbolFacts(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "inv.dl", `
.decl inverse(g:symbol, f:symbol)
.decl selfinv(g:symbol)
selfinv(g) :- inverse(g, g).
`)
	writeFile(t, dir, "inverse.facts", "neg\tneg\nserialize\tdeserialize\n")
	if err := run([]string{"run", prog, "-facts", dir, "-print", "selfinv", "-stats=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg+"\nedge(1,2).\n")
	if err := run([]string{"run", prog, "-explain", "-stats=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAOTAndNaive(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg+"\nedge(1,2).\n")
	for _, args := range [][]string{
		{"run", prog, "-aot", "rules", "-stats=false"},
		{"run", prog, "-aot", "facts", "-stats=false"},
		{"run", prog, "-naive", "-stats=false"},
		{"run", prog, "-backend", "quotes", "-async", "-snippet", "-granularity", "union", "-stats=false"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestRunSharedPlansRepeat(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg+"\nedge(1,2).\nedge(2,3).\nedge(3,4).\n")
	for _, args := range [][]string{
		{"run", prog, "-shared-plans", "-repeat", "3", "-stats=false"},
		{"run", prog, "-shared-plans", "-repeat", "2"},
		{"run", prog, "-shared-plans", "-repeat", "2", "-backend", "lambda"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"run", prog, "-repeat", "0"}); err == nil {
		t.Fatal("-repeat 0 accepted")
	}
}

// TestFlagValidation: count-like flags whose 0 default means "auto" must
// reject an explicit zero or negative setting instead of silently running
// with the default, for both subcommands.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg+"\nedge(1,2).\n")
	bad := [][]string{
		{"run", prog, "-repeat", "-2"},
		{"run", prog, "-workers", "0"},
		{"run", prog, "-workers", "-1"},
		{"run", prog, "-shards", "0"},
		{"run", prog, "-shards", "-4"},
		{"run", prog, "-fanout-threshold", "-1"},
		{"serve", prog, "-clients", "-1"},
		{"serve", prog, "-queries", "-3"},
		{"serve", prog, "-qps", "0"},
		{"serve", prog, "-qps", "-2.5"},
		{"serve", prog, "-workers", "0"},
		{"serve", prog, "-shards", "-1"},
	}
	for _, args := range bad {
		err := run(args)
		if err == nil {
			t.Errorf("run(%v) succeeded, want rejection", args)
			continue
		}
		if !strings.Contains(err.Error(), "must be") {
			t.Errorf("run(%v): unexpected error %v", args, err)
		}
	}
	// The unset defaults stay legal: workers/shards 0 means GOMAXPROCS/off,
	// fanout-threshold 0 the default threshold.
	for _, args := range [][]string{
		{"run", prog, "-stats=false"},
		{"run", prog, "-fanout-threshold", "0", "-stats=false"},
		{"run", prog, "-shards", "4", "-workers", "2", "-fanout-threshold", "1", "-histograms"},
		{"serve", prog, "-clients", "1", "-queries", "1", "-stats=false"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestServeCommand(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg)
	writeFile(t, dir, "edge.facts", "1\t2\n2\t3\n3\t4\n4\t5\n")
	for _, args := range [][]string{
		{"serve", prog, "-facts", dir, "-clients", "3", "-queries", "2", "-stats=false"},
		{"serve", prog, "-facts", dir, "-clients", "2", "-queries", "2", "-backend", "lambda"},
		{"serve", prog, "-facts", dir, "-clients", "2", "-queries", "3", "-qps", "100", "-stats=false"},
		{"serve", prog, "-facts", dir, "-clients", "2", "-queries", "2", "-shards", "4", "-workers", "2", "-stats=false"},
		{"serve", prog, "-facts", dir, "-clients", "3", "-queries", "4", "-materialize", "-stats=false"},
		{"serve", prog, "-facts", dir, "-clients", "2", "-queries", "5", "-materialize", "-repeat", "0.5"},
		{"serve", prog, "-facts", dir, "-clients", "2", "-queries", "2", "-materialize", "-repeat", "0", "-backend", "lambda", "-stats=false"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

// TestServeCheckpoint: serve -materialize -cache-dir writes the first epoch's
// fixpoint, and a second serve over the same program and facts starts from
// it.
func TestServeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg)
	writeFile(t, dir, "edge.facts", "1\t2\n2\t3\n3\t4\n")
	cache := filepath.Join(dir, "cache")
	args := []string{"serve", prog, "-facts", dir, "-clients", "2", "-queries", "2", "-materialize", "-cache-dir", cache}
	for i := 0; i < 2; i++ {
		if err := run(args); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
		if _, err := os.Stat(filepath.Join(cache, "fixpoint.ckpt")); err != nil {
			t.Fatalf("serve %d left no checkpoint: %v", i, err)
		}
	}
}

func TestServeErrors(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "tc.dl", tcProg+"\nedge(1,2).\n")
	for _, args := range [][]string{
		{"serve"},
		{"serve", filepath.Join(dir, "missing.dl")},
		{"serve", prog, "-clients", "0"},
		{"serve", prog, "-queries", "0"},
		{"serve", prog, "-repeat", "1.5"},
		{"serve", prog, "-backend", "llvm"},
		{"serve", prog, "-cache-dir", filepath.Join(dir, "cache")}, // needs -materialize
		{"uptime", prog},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
