package engines

import (
	"testing"
	"time"

	"carac/internal/analysis"
	"carac/internal/core"
	"carac/internal/datagen"
	"carac/internal/jit"
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

// TestCaracShardedAndAdaptiveAgree: RunCaracSharded derives what the same
// sharded pool derives with lambda task units attached.
func TestCaracShardedAndAdaptiveAgree(t *testing.T) {
	facts := datagen.SListLib(1, 5)
	ref, err := RunCaracSharded(analysis.InvFuns(analysis.HandOptimized, facts), 4, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.InvFuns(analysis.HandOptimized, facts).P.Run(core.Options{
		Indexed: true, Shards: 4, Workers: 2, Timeout: time.Minute,
		JIT: jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranSPJ},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.DNF {
		t.Fatal("unexpected DNF")
	}
	if ref.TotalFacts != res.TotalFacts {
		t.Fatalf("compiled fan-out disagrees: %d vs %d facts", res.TotalFacts, ref.TotalFacts)
	}
}

func TestModeString(t *testing.T) {
	if SouffleAutoTune.String() != "Souffle-AutoTuned" || SouffleInterp.String() != "Souffle-Interpreter" {
		t.Fatal("mode names wrong")
	}
}
