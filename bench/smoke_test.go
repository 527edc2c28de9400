package main

import (
	"io"
	"testing"
	"time"
)

// Each workload at a tiny size, through the same functions the benchmark
// runs, untraced and traced: every metric it owns must come out and
// every correctness check must pass.
func TestWorkloadsSmoke(t *testing.T) {
	tiny := map[string]func(*env) error{
		wServeWrite: func(e *env) error {
			return runServe(e, serveParams{quotes: 50, ratioQuotes: 80, writeEvery: 1, burst: 20 * time.Millisecond, minReps: 1})
		},
		wServeReadMix: func(e *env) error {
			return runServe(e, serveParams{quotes: 400, ratioQuotes: 600, writeEvery: 10, refreshEvery: 2, minReps: 1})
		},
		wSimMetro: func(e *env) error {
			return runSim(e, simParams{scenario: "testdata/scenarios/static-highway.json", minReps: 1})
		},
		wTrainPaper: func(e *env) error {
			p := trainPaperParams
			p.cfg.Episodes, p.cfg.Rounds, p.minReps = 3, 20, 1
			return runTrain(e, p)
		},
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				e := &env{seed: 0, dur: 400 * time.Millisecond, traced: traced, root: "..", work: t.TempDir()}
				e.rep = newReport(name, io.Discard)
				if err := tiny[name](e); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				} else {
					e.rep.set("peak_rss_mb", peakRSSMB(), 1)
				}
				res := e.rep.finish(defs)
				for _, p := range e.rep.problems {
					t.Errorf("check failed: %s", p)
				}
				if len(res.Metrics) != len(defs) || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				// Counts that a healthy tiny run may read as 0.
				mayBeZero := map[string]bool{"serve.rotate_errors": true, "serve.journal_bytes_per_round": true}
				for _, d := range defs {
					if d.appliesTo(name) && res.Metrics[d.name].Value == 0 && !mayBeZero[d.name] {
						t.Errorf("%s measured as 0", d.name)
					}
				}
			})
		}
	}
}

// A metric in a time unit must be measured on every workload: a workload
// that bypasses a layer reports 0 for it, and only counts, sizes, rates
// and ratios may legitimately read 0.
func TestTimeMetricsApplyEverywhere(t *testing.T) {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		switch d.unit {
		case "s", "ms", "us":
			if len(d.on) != len(workloadOrder) {
				t.Errorf("%s is a time but applies only to %v", d.name, d.on)
			}
		}
	}
}
