package experiments

import (
	"context"
	"reflect"
	"testing"
)

// nonstationaryStudyCfg returns a test-sized study configuration.
func nonstationaryStudyCfg() NonstationaryStudyConfig {
	cfg := DefaultNonstationaryStudyConfig()
	cfg.Static.DurationS = 200
	cfg.NonStationary.DurationS = 200
	cfg.DRL.Episodes = 2
	cfg.DRL.Rounds = 20
	cfg.DRL.HistoryLen = 3
	cfg.DRL.UpdateEvery = 10
	cfg.DRL.PPO.MiniBatch = 10
	cfg.DRL.Seed = 5
	return cfg
}

// TestNonstationaryStudyCells checks the 2×2 structure: fixed cell
// order, both scenarios actually run, the online cells update, and the
// margins reconcile with the per-cell leader utilities.
func TestNonstationaryStudyCells(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	study, err := RunNonstationaryStudyCtx(context.Background(), nonstationaryStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ scenario, pricer string }{
		{"static", "frozen-drl"}, {"static", "online-warm"},
		{"nonstationary", "frozen-drl"}, {"nonstationary", "online-warm"},
	}
	if len(study.Arms) != len(want) {
		t.Fatalf("%d cells, want %d", len(study.Arms), len(want))
	}
	for i, w := range want {
		arm := study.Arms[i]
		if arm.Scenario != w.scenario || arm.Pricer != w.pricer {
			t.Fatalf("cell %d is %s/%s, want %s/%s", i, arm.Scenario, arm.Pricer, w.scenario, w.pricer)
		}
		if arm.Report.PricingRounds == 0 {
			t.Fatalf("%s/%s cell ran no pricing rounds", w.scenario, w.pricer)
		}
		if w.pricer == "online-warm" && arm.Updates == 0 {
			t.Fatalf("%s online cell never updated", w.scenario)
		}
		if w.pricer == "frozen-drl" && arm.Updates != 0 {
			t.Fatalf("%s frozen cell reports %d updates", w.scenario, arm.Updates)
		}
		if study.Arm(w.scenario, w.pricer) != &study.Arms[i] {
			t.Fatalf("Arm(%s, %s) lookup broken", w.scenario, w.pricer)
		}
	}
	// The two cells of one scenario must have run the identical workload.
	for _, sc := range []string{"static", "nonstationary"} {
		frozen, online := study.Arm(sc, "frozen-drl"), study.Arm(sc, "online-warm")
		if frozen.Report.Handovers != online.Report.Handovers {
			t.Fatalf("%s cells saw different workloads: %d vs %d handovers",
				sc, frozen.Report.Handovers, online.Report.Handovers)
		}
	}
	wantStatic := study.Arm("static", "online-warm").LeaderUtility - study.Arm("static", "frozen-drl").LeaderUtility
	wantNS := study.Arm("nonstationary", "online-warm").LeaderUtility - study.Arm("nonstationary", "frozen-drl").LeaderUtility
	if study.StaticMargin != wantStatic || study.NonstationaryMargin != wantNS {
		t.Fatalf("margins do not reconcile: %g/%g vs %g/%g",
			study.StaticMargin, study.NonstationaryMargin, wantStatic, wantNS)
	}
	if study.MarginGain != wantNS-wantStatic {
		t.Fatalf("MarginGain %g, want %g", study.MarginGain, wantNS-wantStatic)
	}
	if tab := study.Table(); len(tab.Rows) != 4 || len(tab.Columns) != 8 {
		t.Fatalf("table %d×%d, want 4×8", len(study.Table().Rows), len(study.Table().Columns))
	}
	if study.Arm("static", "nonsense") != nil || study.Arm("nonsense", "frozen-drl") != nil {
		t.Fatal("unknown cell resolved")
	}
}

// TestNonstationaryStudyDeterministic pins determinism contract rule 2
// for the study: two identically configured runs produce identical
// reports and margins.
func TestNonstationaryStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	a, err := RunNonstationaryStudyCtx(context.Background(), nonstationaryStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNonstationaryStudyCtx(context.Background(), nonstationaryStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical studies diverged:\n %+v\n %+v", a, b)
	}
}

// TestNonstationaryStudyRejectsBadScenario pins the fail-before-training
// contract: a scenario that does not compile errors out immediately.
func TestNonstationaryStudyRejectsBadScenario(t *testing.T) {
	cfg := nonstationaryStudyCfg()
	cfg.NonStationary.Vehicles = -2
	if _, err := RunNonstationaryStudyCtx(context.Background(), cfg); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}
