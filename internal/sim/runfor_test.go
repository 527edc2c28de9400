package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vtmig/internal/stackelberg"
)

// TestRunForFractionalSteps pins the truncation fix: spans that are exact
// multiples of TimeStepS in real arithmetic must execute exactly that
// many steps even when the float quotient lands just below the integer
// (1800/0.3 = 5999.999…), while genuinely partial spans still round down.
func TestRunForFractionalSteps(t *testing.T) {
	cases := []struct {
		name      string
		timeStep  float64
		seconds   float64
		wantSteps int
	}{
		{"unit step", 1, 600, 600},
		{"0.3 over 1800s", 0.3, 1800, 6000},
		{"0.3 over 600s", 0.3, 600, 2000},
		{"0.1 over 1s", 0.1, 1, 10},
		{"0.7 x 3", 0.7, 2.1, 3},
		{"partial span rounds down", 0.3, 0.8, 2},
		{"sub-step span", 0.3, 0.1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TimeStepS = tc.timeStep
			cfg.DurationS = math.Max(tc.seconds, tc.timeStep)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.RunFor(tc.seconds)
			steps := int(math.Round(s.Now() / tc.timeStep))
			if steps != tc.wantSteps {
				t.Fatalf("RunFor(%g) at step %g ran %d steps, want %d", tc.seconds, tc.timeStep, steps, tc.wantSteps)
			}
		})
	}
}

// TestRunForSplitMatchesRunFractionalStep is the divergence the bug
// caused: with TimeStepS = 0.3, three RunFor(600) legs dropped a step per
// leg versus one Run over 1800 s. Split and whole must agree exactly.
func TestRunForSplitMatchesRunFractionalStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeStepS = 0.3
	cfg.DurationS = 1800

	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Run()

	split, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		split.RunFor(600)
	}
	got := split.Finish()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split report diverges from whole run:\n got %+v\nwant %+v", got, want)
	}
	if whole.Now() != split.Now() {
		t.Fatalf("clocks diverge: whole %g, split %g", whole.Now(), split.Now())
	}
}

// nanPricer drives the corrupted-accounting guard in runPricingRound.
type nanPricer struct{}

func (nanPricer) Name() string                       { return "nan" }
func (nanPricer) PriceFor(*stackelberg.Game) float64 { return math.NaN() }

// TestRunPanicsOnNaNPrice pins the demand-scaling poisoning fix: a pricer
// returning NaN must stop the simulation with a contextual panic instead
// of silently feeding NaN demands into the shared bandwidth pool.
func TestRunPanicsOnNaNPrice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationS = 600
	cfg.Pricer = nanPricer{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run with a NaN pricer completed; want a corrupted-accounting panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "returned NaN") {
			t.Fatalf("panic = %v, want the NaN-price context", r)
		}
	}()
	s.Run()
}
