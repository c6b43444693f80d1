package engines

import (
	"testing"
	"time"

	"carac/internal/analysis"
	"carac/internal/datagen"
)

func TestSouffleModesAgreeOnResults(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	var factCounts []int
	for _, mode := range []SouffleMode{SouffleInterp, SouffleCompile, SouffleAutoTune} {
		b := analysis.InvFuns(analysis.HandOptimized, facts)
		rep, err := RunSouffle(b, mode, time.Millisecond, time.Minute)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rep.DNF {
			t.Fatalf("%v: unexpected DNF", mode)
		}
		factCounts = append(factCounts, rep.TotalFacts)
	}
	if factCounts[0] != factCounts[1] || factCounts[1] != factCounts[2] {
		t.Fatalf("modes disagree: %v", factCounts)
	}
}

func TestSouffleCompileIncludesLatency(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	b := analysis.InvFuns(analysis.HandOptimized, facts)
	lat := 120 * time.Millisecond
	rep, err := RunSouffle(b, SouffleCompile, lat, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration < lat {
		t.Fatalf("compiled duration %v should include the %v compile latency", rep.Duration, lat)
	}
}

func TestSouffleAutoTuneReportsProfileSeparately(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	b := analysis.InvFuns(analysis.HandOptimized, facts)
	rep, err := RunSouffle(b, SouffleAutoTune, time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProfileTime <= 0 {
		t.Fatal("profile time not reported")
	}
}

func TestDLXNaiveAgrees(t *testing.T) {
	facts := datagen.CSDAGraph(500, 3)
	ref := analysis.CSDA(facts)
	refRep, err := RunSouffle(ref, SouffleInterp, time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b := analysis.CSDA(facts)
	rep, err := RunDLX(b, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DNF {
		t.Fatal("unexpected DNF")
	}
	if rep.TotalFacts != refRep.TotalFacts {
		t.Fatalf("DLX disagrees: %d vs %d", rep.TotalFacts, refRep.TotalFacts)
	}
}

func TestDNFOnTimeout(t *testing.T) {
	facts := datagen.CSPAGraph(2500, 9)
	b := analysis.CSPA(analysis.Unoptimized, facts)
	rep, err := RunDLX(b, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DNF {
		t.Skip("machine fast enough to finish; DNF path not exercised at this scale")
	}
}

func TestModeString(t *testing.T) {
	if SouffleAutoTune.String() != "Souffle-AutoTuned" || SouffleInterp.String() != "Souffle-Interpreter" {
		t.Fatal("mode names wrong")
	}
}

func TestCaracShardedAndAdaptiveAgree(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	ref, err := RunCaracSharded(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := RunCaracAdaptiveJIT(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if ref.DNF || ad.DNF {
		t.Fatal("unexpected DNF")
	}
	if ref.TotalFacts != ad.TotalFacts {
		t.Fatalf("compiled fan-out disagrees: %d vs %d facts", ad.TotalFacts, ref.TotalFacts)
	}
}

func TestCaracWarmAgrees(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	ref, err := RunCaracSharded(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCaracWarm(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if ref.DNF || warm.DNF {
		t.Fatal("unexpected DNF")
	}
	if warm.TotalFacts != ref.TotalFacts {
		t.Fatalf("warm rerun disagrees: %d vs %d facts", warm.TotalFacts, ref.TotalFacts)
	}
}

func TestCaracServeAgrees(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	ref, err := RunCaracSharded(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, jit := range []bool{false, true} {
		rep, err := RunCaracServe(analysis.InvFuns(analysis.HandOptimized, facts), ServeConfig{
			Clients:          3,
			QueriesPerClient: 2,
			Workers:          4,
			UseJIT:           jit,
			Repeat:           1,
			Timeout:          time.Minute,
		})
		if err != nil {
			t.Fatalf("jit=%v: %v", jit, err)
		}
		if rep.Queries != 6 {
			t.Fatalf("jit=%v: completed %d queries, want 6", jit, rep.Queries)
		}
		if rep.TotalFacts != ref.TotalFacts {
			t.Fatalf("jit=%v: serving sessions derive %d facts, oracle %d", jit, rep.TotalFacts, ref.TotalFacts)
		}
		if rep.QPS <= 0 {
			t.Fatalf("jit=%v: QPS not computed: %v", jit, rep.QPS)
		}
		if rep.CrossRunHits == 0 {
			t.Fatalf("jit=%v: serving sessions never reused the warmed store", jit)
		}
	}
}

// TestCaracServeMaterialized drives the serving harness with materialized
// epochs and a mixed hot/cold ratio: the answers still match the sequential
// oracle, exactly one fixpoint materializes, and both the repeat queries and
// the fresh-session queries answer from it (memo hits).
func TestCaracServeMaterialized(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	ref, err := RunCaracSharded(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCaracServe(analysis.InvFuns(analysis.HandOptimized, facts), ServeConfig{
		Clients:          3,
		QueriesPerClient: 4,
		Workers:          4,
		Materialize:      true,
		Repeat:           0.5,
		Timeout:          time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 12 {
		t.Fatalf("completed %d queries, want 12", rep.Queries)
	}
	if rep.TotalFacts != ref.TotalFacts {
		t.Fatalf("materialized sessions derive %d facts, oracle %d", rep.TotalFacts, ref.TotalFacts)
	}
	if rep.MaterializedEpochs != 1 {
		t.Fatalf("materialized %d epochs, want 1", rep.MaterializedEpochs)
	}
	if rep.MemoHits != int64(rep.Queries)-1 {
		t.Fatalf("memo hits = %d, want %d (every query but the derivation)", rep.MemoHits, rep.Queries-1)
	}
}

func TestCaracServePaced(t *testing.T) {
	facts := datagen.SListLib(1, 4)
	rep, err := RunCaracServe(analysis.InvFuns(analysis.HandOptimized, facts), ServeConfig{
		Clients:          2,
		QueriesPerClient: 3,
		TargetQPS:        50,
		Workers:          2,
		Repeat:           1,
		Timeout:          time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 6 {
		t.Fatalf("completed %d queries, want 6", rep.Queries)
	}
	// 3 queries at 50 QPS pace: the 2nd and 3rd each wait ~20ms behind the
	// first tick, so the drive cannot finish faster than the pacing allows.
	if rep.Duration < 40*time.Millisecond {
		t.Fatalf("paced drive finished in %v, pacing not applied", rep.Duration)
	}
}
