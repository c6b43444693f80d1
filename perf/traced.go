package main

import (
	"fmt"
	"os"
	"slices"
)

// perLayer lists every per-layer metric with its unit, in the order of
// README.md's table. BENCHMARK.json's per_layer list is this list (a test
// holds them equal), and the contract has every traced run print all of it:
// a counter or span whose mechanism a workload does not exercise reads 0
// there (the "bypasses it" half of a prediction), and so does a probe that
// belongs to another workload.
var perLayer = []struct{ name, unit string }{
	// Probes of storage.
	{"storage.insert_ns", "ns"}, {"storage.dedup_ns", "ns"}, {"storage.probe_ns", "ns"},
	{"storage.shard_insert_ns", "ns"}, {"storage.bytes_per_row", "B"},
	{"storage.pin_us", "us"}, {"storage.flip_ms", "ms"},
	{"storage.delete_rows_us", "us"}, {"storage.assert_at_us", "us"},
	// optimizer, stats.
	{"optimizer.reorder_us", "us"}, {"optimizer.reorders", "count"}, {"stats.snapshot_us", "us"},
	// interp: counters per cycle, then probes.
	{"interp.iterations", "count"}, {"interp.spj_runs", "count"}, {"interp.derivations", "count"},
	{"interp.plan_builds", "count"}, {"interp.plan_reuses", "count"}, {"interp.merge_tasks", "count"},
	{"interp.seq_iters", "count"}, {"interp.retracted", "count"}, {"interp.rederived", "count"},
	{"interp.build_plan_us", "us"}, {"interp.execute_ns_per_row", "ns"}, {"interp.useful_ratio", "ratio"},
	// jit.
	{"jit.compile_us.lambda", "us"}, {"jit.compile_us.bytecode", "us"}, {"jit.compile_us.quotes", "us"},
	{"jit.compilations", "count"}, {"jit.compile_ms_total", "ms"}, {"jit.cache_hits", "count"},
	{"jit.stale_drops", "count"}, {"jit.switchovers", "count"}, {"jit.failures", "count"},
	// plancache.
	{"plancache.lookup_ns", "ns"}, {"plancache.store_ns", "ns"},
	{"plancache.hits", "count"}, {"plancache.cold_misses", "count"}, {"plancache.band_misses", "count"},
	{"plancache.stale_drops", "count"}, {"plancache.hit_ratio", "ratio"}, {"plancache.crossrun_hits", "count"},
	{"plancache.flush_ms", "ms"}, {"plancache.load_ms", "ms"},
	{"plancache.disk_hits", "count"}, {"plancache.disk_bytes", "B"},
	// parser, ast, ir.
	{"parser.parse_ms", "ms"}, {"ast.stratify_us", "us"}, {"ir.lower_us", "us"},
	{"ir.lower_warm_us", "us"}, {"ir.lower_retract_us", "us"},
	// core: spans around the driver's own calls, then counts.
	{"core.run_ms", "ms"}, {"core.serve_open_ms", "ms"}, {"core.session_open_us", "us"},
	{"core.query_memo_us", "us"}, {"core.query_derive_ms", "ms"}, {"core.ingest_tx_us", "us"},
	{"core.publish_ms", "ms"}, {"core.apply_delete_ms", "ms"}, {"core.apply_insert_ms", "ms"},
	{"core.memo_hits", "count"}, {"core.warm_starts", "count"}, {"core.materialized_epochs", "count"},
	{"core.cold_applies", "count"}, {"core.writer_late_ms_p90", "ms"},
	// The workload's own speed: latencies of the untraced cycles and the
	// fastest round's rate. Not gated, see README.md.
	{"core.op_ms_p10", "ms"}, {"core.op_ms_p50", "ms"}, {"core.op_ms_p90", "ms"},
	{"core.aux_ms_p10", "ms"}, {"core.aux_ms_p50", "ms"}, {"core.aux_ms_p90", "ms"}, {"core.ops_per_s", "1/s"},
	// Estimated shares of the primary op, and the tracing overhead.
	{"storage.est_share", "ratio"}, {"jit.est_share", "ratio"}, {"interp.plan_est_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics maps span names to the metric their median duration feeds, and
// the divisor from nanoseconds.
var spanMetrics = []struct {
	span, metric string
	perNs        float64
}{
	{"core.run", "core.run_ms", 1e6}, {"core.serve_open", "core.serve_open_ms", 1e6},
	{"core.session_open", "core.session_open_us", 1e3}, {"core.query_memo", "core.query_memo_us", 1e3},
	{"core.query_derive", "core.query_derive_ms", 1e6}, {"core.ingest_tx", "core.ingest_tx_us", 1e3},
	{"core.publish", "core.publish_ms", 1e6}, {"core.apply_delete", "core.apply_delete_ms", 1e6},
	{"core.apply_insert", "core.apply_insert_ms", 1e6},
}

// opMean returns the mean of count over the workload's primary ops: the sum
// over the children of every "op" root span, divided by the number of roots.
func opMean(spans []span, count string) float64 {
	ops, sum := 0, 0.0
	for _, s := range spans {
		if s.Parent < 0 && s.Name == "op" {
			ops++
		}
		if s.Parent >= 0 && spans[s.Parent].Name == "op" {
			sum += s.Counts[count]
		}
	}
	if ops == 0 {
		return 0
	}
	return sum / float64(ops)
}

// runTraced is the traced run: the same rounds as the untraced run, with the
// first set-up and every fourth cycle of the timed phases traced (so the
// overhead is measured within one run, against the same host conditions),
// then the workload's layer probes, and the span file.
func runTraced(cfg *config, w workload, out string) (*result, error) {
	if _, err := w.prepare(cfg); err != nil {
		return nil, err
	}
	defer w.cleanup()
	tr := newTracer(w.name())
	tr.setOn(true)
	p, err := measure(cfg, w, tr)
	if err != nil {
		return nil, err
	}
	plain, traced := latencies(p.op, false), latencies(p.op, true)
	if len(plain) == 0 || p.tracedCycles == 0 {
		return nil, fmt.Errorf("timed phase of %.1fs completed no traced and untraced cycle (%d ops failed: %v)",
			cfg.seconds, p.failed, p.errs)
	}
	timedSpans := len(tr.spans)
	tr.setOn(true)
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	m, err := runProbes(cfg, tr, w)
	if err != nil {
		return nil, err
	}

	// Engine counters per cycle (one op and one aux): what the spans of the
	// timed phases' traced cycles carry. The server-wide ones cover every
	// cycle, traced or not.
	sums := map[string]float64{}
	for _, s := range tr.spans[p.setupSpans:timedSpans] {
		for k, v := range s.Counts {
			sums[k] += v
		}
	}
	for k, v := range sums {
		m[k] = v / float64(p.tracedCycles)
	}
	for k, v := range p.serverCounts {
		m[k] = v / float64(p.cycles)
	}
	if lookups := m["plancache.hits"] + m["plancache.cold_misses"] + m["plancache.band_misses"] + m["plancache.stale_drops"]; lookups > 0 {
		m["plancache.hit_ratio"] = m["plancache.hits"] / lookups
	}
	for _, sm := range spanMetrics {
		if ds := tr.durationsMs(sm.span); len(ds) > 0 {
			m[sm.metric] = quantile(ds, 0.5) * 1e6 / sm.perNs
		}
	}
	if len(p.lateMs) > 0 {
		m["core.writer_late_ms_p90"] = quantile(p.lateMs, 0.9)
	}
	aux := latencies(p.aux, false)
	m["core.op_ms_p10"], m["core.op_ms_p50"], m["core.op_ms_p90"] = quantile(plain, 0.1), quantile(plain, 0.5), quantile(plain, 0.9)
	m["core.aux_ms_p10"], m["core.aux_ms_p50"], m["core.aux_ms_p90"] = quantile(aux, 0.1), quantile(aux, 0.5), quantile(aux, 0.9)
	m["core.ops_per_s"] = slices.Max(p.opsPerS)

	// Shares: a probe's unit cost times the primary op's own count of that
	// unit, over the op's untraced latency. Estimates: the probe's data and
	// access pattern are not the op's. A share whose probe belongs to another
	// workload reads 0.
	opMs := m["core.op_ms_p10"]
	m["storage.est_share"] = m["storage.insert_ns"] * opMean(tr.spans, "interp.derivations") / 1e6 / opMs
	m["jit.est_share"] = m["jit.compile_us.lambda"] * opMean(tr.spans, "jit.compilations") / 1e3 / opMs
	m["interp.plan_est_share"] = m["interp.build_plan_us"] * opMean(tr.spans, "interp.plan_builds") / 1e3 / opMs
	m["trace.overhead_pct"] = 100 * (quantile(traced, 0.10) - opMs) / opMs

	res := p.result()
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	return res, tr.write(out)
}
