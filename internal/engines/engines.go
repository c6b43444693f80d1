// Package engines implements the baseline Datalog engines of the paper's
// state-of-the-art comparison (Table II), rebuilt over the same storage
// substrate so the comparison isolates *strategy*, not implementation
// effort:
//
//   - Soufflé-like AOT engine in three modes: Interpreter (tree-walking with
//     the program's as-written join orders), Compiler (whole-program
//     compilation to closures plus a simulated external-compiler latency,
//     standing in for Soufflé's dominant C++ compile cost), and Auto-Tuned
//     (a real offline profiling run whose observed cardinalities fix the
//     join orders before compilation — Soufflé's profile-guided optimizer;
//     profiling time is reported separately, as the paper excludes it).
//   - DLX-like commercial baseline: naive (non-semi-naive) interpreted
//     evaluation, the role the anonymized engine plays in Table II (slow,
//     DNF on the largest workload).
package engines

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/interp"
	"carac/internal/jit"
	"carac/internal/stats"
)

// SouffleMode selects the baseline AOT engine's mode.
type SouffleMode uint8

const (
	// SouffleInterp is the interpreter mode (no codegen, as-written orders).
	SouffleInterp SouffleMode = iota
	// SouffleCompile compiles the whole program once (includes the simulated
	// external-compiler latency in Duration, like Soufflé's C++ compile).
	SouffleCompile
	// SouffleAutoTune profiles first, then compiles with profile-guided
	// join orders. Profile time is reported separately.
	SouffleAutoTune
)

// String names the mode as in Table II.
func (m SouffleMode) String() string {
	switch m {
	case SouffleCompile:
		return "Souffle-Compiler"
	case SouffleAutoTune:
		return "Souffle-AutoTuned"
	default:
		return "Souffle-Interpreter"
	}
}

// Report is one baseline measurement.
type Report struct {
	// Duration is the end-to-end execution time (including compile cost for
	// the compiled modes, matching the paper's accounting).
	Duration time.Duration
	// ProfileTime is the auto-tune profiling phase, excluded from Duration
	// ("does not include the time spent generating the profiling
	// information", §VI-D).
	ProfileTime time.Duration
	// DNF marks a run that hit its timeout.
	DNF bool
	// TotalFacts is the derived-tuple count (validation that all engines
	// agree).
	TotalFacts int
}

// DefaultCompileLatency approximates the one-time external C++ compile cost
// the Soufflé compiler modes pay; Table II's InvFuns row is dominated by it.
// Scaled down from the paper's ~20 s to suit the reduced dataset scales.
const DefaultCompileLatency = 1500 * time.Millisecond

// RunSouffle executes the built program under the given mode. cxxLatency <= 0
// picks DefaultCompileLatency for the compiled modes.
func RunSouffle(b *analysis.Built, mode SouffleMode, cxxLatency, timeout time.Duration) (*Report, error) {
	if cxxLatency <= 0 {
		cxxLatency = DefaultCompileLatency
	}
	switch mode {
	case SouffleInterp:
		res, err := b.P.Run(core.Options{Indexed: true, PlanCache: true, Timeout: timeout})
		return report(res, 0, err)

	case SouffleCompile:
		res, err := b.P.Run(core.Options{
			Indexed:   true,
			PlanCache: true,
			Timeout:   timeout,
			JIT: jit.Config{
				Backend:            jit.BackendLambda,
				Granularity:        jit.GranProgram,
				FreshnessThreshold: 1e18, // AOT: compile exactly once
				CompileLatency:     cxxLatency,
			},
		})
		return report(res, 0, err)

	case SouffleAutoTune:
		// Offline profiling pass: run to fixpoint, observe cardinalities.
		t0 := time.Now()
		prof, err := b.P.Run(core.Options{Indexed: true, PlanCache: true, Timeout: timeout})
		profileTime := time.Since(t0)
		if err != nil {
			if errors.Is(err, interp.ErrCancelled) {
				return &Report{DNF: true, ProfileTime: profileTime}, nil
			}
			return nil, err
		}
		profile := stats.CaptureProfile(b.P.Catalog(), prof.Interp.Iterations)
		res, err := b.P.Run(core.Options{
			Indexed:   true,
			PlanCache: true,
			Timeout:   timeout,
			AOTStats:  profile,
			JIT: jit.Config{
				Backend:            jit.BackendLambda,
				Granularity:        jit.GranProgram,
				FreshnessThreshold: 1e18,
				CompileLatency:     cxxLatency,
			},
		})
		rep, err := report(res, profileTime, err)
		return rep, err
	}
	return nil, errors.New("engines: unknown Soufflé mode")
}

// RunCaracSharded executes the built program under Carac's sharded parallel
// configuration: the semi-naive fixpoint with every relation hash-partitioned
// into shards buckets, single rules split across workers, the parallelism
// degree re-decided every iteration from live delta statistics (small-delta
// tail iterations run on the sequential path), and the drift-gated plan cache
// on — the production-scale configuration the baseline comparison measures
// Carac at beyond the paper's single-threaded numbers.
func RunCaracSharded(b *analysis.Built, shards, workers int, timeout time.Duration) (*Report, error) {
	res, err := b.P.Run(core.Options{
		Indexed:        true,
		PlanCache:      true,
		ParallelUnions: true,
		Shards:         shards,
		Workers:        workers,
		Timeout:        timeout,
	})
	return report(res, 0, err)
}

// RunCaracAdaptiveJIT is RunCaracSharded with a JIT attached: the fan-out's
// bucket-span tasks execute span-parameterized compiled units over the
// physically sharded delta store (bucket-local reads, race-free per-worker
// list appends, one merge barrier), while small-delta tail iterations run
// compiled sequentially — the fan-out × compilation interaction the paper's
// adaptive claim is about, measured end to end.
func RunCaracAdaptiveJIT(b *analysis.Built, shards, workers int, timeout time.Duration) (*Report, error) {
	res, err := b.P.Run(core.Options{
		Indexed:        true,
		PlanCache:      true,
		ParallelUnions: true,
		Shards:         shards,
		Workers:        workers,
		JIT:            jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ},
		Timeout:        timeout,
	})
	return report(res, 0, err)
}

// RunCaracWarm measures the steady-state cost the Program-lifetime plan
// store exists for: one run populates the store (plans, compiled-unit slots,
// drift state — the long-lived-service shape between incremental fact
// batches), and Duration reports the second run, which starts warm via
// core.Options.SharedPlans instead of paying the cold-start re-planning tax
// per execution.
func RunCaracWarm(b *analysis.Built, shards, workers int, timeout time.Duration) (*Report, error) {
	opts := core.Options{
		Indexed:        true,
		SharedPlans:    true,
		ParallelUnions: true,
		Shards:         shards,
		Workers:        workers,
		Timeout:        timeout,
	}
	if _, err := b.P.Run(opts); err != nil {
		if errors.Is(err, interp.ErrCancelled) {
			return &Report{DNF: true}, nil
		}
		return nil, err
	}
	res, err := b.P.Run(opts)
	return report(res, 0, err)
}

// ServeConfig parameterizes the serving load driver: Clients concurrent
// sessions, each issuing QueriesPerClient fixpoint queries, optionally paced
// to TargetQPS per client (<= 0 runs at maximum throughput). UseJIT attaches
// the lambda backend; Workers bounds the server's shared worker pool.
type ServeConfig struct {
	Clients          int
	QueriesPerClient int
	TargetQPS        float64
	Workers          int
	UseJIT           bool
	// Materialize turns on materialized-epoch serving: the fixpoint is
	// computed once per epoch (single-flight across sessions) and every
	// later query answers from the pinned materialization.
	Materialize bool
	// Repeat is the hot-query ratio per client, in [0,1] (resolved in
	// tenths): that fraction of a client's queries repeat on its persistent
	// session; the rest each open a fresh session for the query. 1 is the
	// all-repeat legacy drive, 0 a repeat-free one.
	Repeat  float64
	Timeout time.Duration
}

// ServeReport is one serving-load measurement.
type ServeReport struct {
	// Clients and Queries describe the drive (Queries = completed queries
	// across all sessions).
	Clients int
	Queries int
	// Duration is the wall-clock time of the whole drive (sessions open
	// through last query done); QPS is Queries / Duration.
	Duration time.Duration
	QPS      float64
	// TotalFacts is the per-query derived-tuple count, equal across every
	// session and query by snapshot isolation (validated by the driver).
	TotalFacts int
	// CrossRunHits counts plan- and unit-store hits that crossed an epoch
	// boundary (warm-start reuse by the serving sessions).
	CrossRunHits int64
	// MemoHits and MaterializedEpochs mirror the server's materialization
	// counters (zero when Materialize is off): queries answered without a
	// fixpoint derivation, and epochs whose fixpoint was computed and pinned.
	MemoHits           int64
	MaterializedEpochs int64
}

// RunCaracServe measures concurrent query serving over one Program: a warm
// Run populates the Program-lifetime plan store, the program is put into
// serving mode, and cfg.Clients sessions — each pinned to the published
// epoch, all sharing the store and the server's worker pool — issue
// fixpoint queries concurrently. Every query must derive the same fact
// count (snapshot isolation makes the sessions bit-equal); the report's
// headline is queries per second.
func RunCaracServe(b *analysis.Built, cfg ServeConfig) (*ServeReport, error) {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.QueriesPerClient < 1 {
		cfg.QueriesPerClient = 1
	}
	opts := core.Options{
		Indexed:     true,
		SharedPlans: true,
		Materialize: cfg.Materialize,
		Workers:     cfg.Workers,
		Timeout:     cfg.Timeout,
	}
	hot := int(cfg.Repeat*10 + 0.5)
	if hot < 0 {
		hot = 0
	}
	if hot > 10 {
		hot = 10
	}
	if cfg.UseJIT {
		opts.JIT = jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ}
	}
	// Warm start: serving is the steady state the plan store exists for.
	if _, err := b.P.Run(opts); err != nil {
		if errors.Is(err, interp.ErrCancelled) {
			return &ServeReport{Clients: cfg.Clients}, nil
		}
		return nil, err
	}
	srv, err := b.P.Serve(opts)
	if err != nil {
		return nil, err
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		queries  int
		facts    = -1
	)
	interval := time.Duration(0)
	if cfg.TargetQPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.TargetQPS)
	}
	t0 := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := srv.Session()
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer sess.Close()
			next := time.Now()
			for q := 0; q < cfg.QueriesPerClient; q++ {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				// Hot queries repeat on the persistent session; the rest
				// model distinct clients arriving — a fresh session per
				// query, interleaved deterministically by position.
				qs := sess
				if q%10 >= hot {
					fresh, err := srv.Session()
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					qs = fresh
				}
				res, err := qs.Query()
				if qs != sess {
					qs.Close()
				}
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				case facts == -1:
					facts = res.TotalFacts
				case facts != res.TotalFacts:
					if firstErr == nil {
						firstErr = fmt.Errorf("engines: serving sessions diverged: %d facts vs %d", res.TotalFacts, facts)
					}
					mu.Unlock()
					return
				}
				queries++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	dt := time.Since(t0)
	if firstErr != nil {
		if errors.Is(firstErr, interp.ErrCancelled) {
			return &ServeReport{Clients: cfg.Clients, Queries: queries, Duration: dt}, nil
		}
		return nil, firstErr
	}
	st := srv.Stats()
	rep := &ServeReport{
		Clients:            cfg.Clients,
		Queries:            queries,
		Duration:           dt,
		TotalFacts:         facts,
		CrossRunHits:       srv.PlanStats().CrossRunHits + srv.UnitStats().CrossRunHits,
		MemoHits:           st.MemoHits,
		MaterializedEpochs: st.MaterializedEpochs,
	}
	if dt > 0 {
		rep.QPS = float64(queries) / dt.Seconds()
	}
	return rep, nil
}

// RunDLX executes the built program the way the anonymized commercial
// baseline does in Table II: naive evaluation, interpreted, as-written
// orders (indexes on).
func RunDLX(b *analysis.Built, timeout time.Duration) (*Report, error) {
	res, err := b.P.Run(core.Options{Indexed: true, Naive: true, PlanCache: true, Timeout: timeout})
	return report(res, 0, err)
}

func report(res *core.Result, profile time.Duration, err error) (*Report, error) {
	if err != nil {
		if errors.Is(err, interp.ErrCancelled) {
			return &Report{DNF: true, ProfileTime: profile}, nil
		}
		return nil, err
	}
	return &Report{
		Duration:    res.Duration,
		ProfileTime: profile,
		TotalFacts:  res.TotalFacts,
	}, nil
}
