package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// scenariosDir is the committed scenario matrix pinned by the goldens.
const scenariosDir = "../../testdata/scenarios"

// committedScenarios returns the sorted paths of the committed matrix.
func committedScenarios(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(scenariosDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("expected at least 6 committed scenarios, found %d: %v", len(files), files)
	}
	return files
}

func TestLoadCommittedScenarios(t *testing.T) {
	seen := map[string]bool{}
	for _, path := range committedScenarios(t) {
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		base := filepath.Base(path)
		stem := strings.TrimSuffix(base, filepath.Ext(base))
		if s.Name != stem {
			t.Errorf("%s: scenario name %q should match the file stem %q", path, s.Name, stem)
		}
		if seen[s.Name] {
			t.Errorf("%s: duplicate scenario name %q", path, s.Name)
		}
		seen[s.Name] = true
		if _, err := s.CompileConfig(); err != nil {
			t.Errorf("%s: compile: %v", path, err)
		}
	}
	// The matrix must cover every workload dimension at least once.
	for _, want := range []string{"static-highway", "urban-grid", "churn", "outages", "demand-cycle", "nonstationary"} {
		if !seen[want] {
			t.Errorf("committed matrix is missing scenario %q", want)
		}
	}
}

func TestLoadRejectsUnknownExtension(t *testing.T) {
	if _, err := Load("nope.yaml"); err == nil || !strings.Contains(err.Error(), "unsupported extension") {
		t.Fatalf("want unsupported-extension error, got %v", err)
	}
}

func TestParseJSONStrict(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown field", `{"name": "x", "vehicels": 4}`, "vehicels"},
		{"trailing content", `{"name": "x"} {"name": "y"}`, "trailing content"},
		{"malformed", `{"name": `, "parsing JSON"},
		{"wrong type", `{"name": "x", "vehicles": "six"}`, "parsing JSON"},
		{"missing name", `{"seed": 7}`, "Name must be set"},
		{"unknown pricer field in spec", `{"name": "x", "pricer": {"name": "oracle", "prize": 3}}`, "prize"},
		{"bad mobility kind", `{"name": "x", "mobility": {"kind": "teleport"}}`, "teleport"},
		{"negative outage count", `{"name": "x", "outage_gen": {"count": -1, "mean_duration_s": 5}}`, "must not be negative"},
		{"outage gen zero duration", `{"name": "x", "outage_gen": {"count": 2}}`, "MeanDurationS"},
		{"invalid compiled config", `{"name": "x", "vehicles": -4}`, `scenario "x"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src), FormatJSON)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestParseTOMLSharesJSONSchema(t *testing.T) {
	// The same scenario in both formats must decode to the same value.
	jsonSrc := `{
		"name": "twin", "seed": 9, "duration_s": 60, "vehicles": 4,
		"churn": {"arrival_rate_per_s": 0.1, "mean_dwell_s": 80},
		"outages": [{"rsu": 1, "start_s": 5, "end_s": 20}],
		"pricer": {"name": "fixed", "price": 25}
	}`
	tomlSrc := `
name = "twin"
seed = 9
duration_s = 60.0
vehicles = 4

[churn]
arrival_rate_per_s = 0.1
mean_dwell_s = 80.0

[[outages]]
rsu = 1
start_s = 5.0
end_s = 20.0

[pricer]
name = "fixed"
price = 25.0
`
	fromJSON, err := Parse([]byte(jsonSrc), FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	fromTOML, err := Parse([]byte(tomlSrc), FormatTOML)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromTOML) {
		t.Fatalf("JSON and TOML decode diverge:\n json: %+v\n toml: %+v", fromJSON, fromTOML)
	}
}

func TestParseTOMLRejectsUnknownField(t *testing.T) {
	src := "name = \"x\"\nvehicels = 4\n"
	if _, err := Parse([]byte(src), FormatTOML); err == nil || !strings.Contains(err.Error(), "vehicels") {
		t.Fatalf("want unknown-field error naming vehicels, got %v", err)
	}
}

func TestParseUnknownFormat(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x"}`), "yaml"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("want unknown-format error, got %v", err)
	}
}

func TestCompileConfigDefaults(t *testing.T) {
	s := &Scenario{Name: "bare"}
	cfg, err := s.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	def := sim.DefaultConfig()
	if cfg.Pricer != nil {
		t.Fatalf("CompileConfig must leave Pricer nil, got %T", cfg.Pricer)
	}
	cfg.Pricer = def.Pricer
	if !reflect.DeepEqual(cfg, def) {
		t.Fatalf("bare scenario should compile to the default config:\n got:  %+v\n want: %+v", cfg, def)
	}
}

func TestCompileConfigOverrides(t *testing.T) {
	s := &Scenario{
		Name: "grid", Seed: 77, DurationS: 90, Vehicles: 9,
		SpeedMinMps: 10, SpeedMaxMps: 15, FailureRate: 0.25,
		Mobility: &Mobility{Kind: KindGrid, Rows: 3, Cols: 4, SpacingM: 400, RadiusM: 300, TurnSeed: 5},
		Classes:  []VehicleClass{{Name: "bus", Weight: 1, SpeedMinMps: 8, SpeedMaxMps: 12}},
		Churn:    &Churn{ArrivalRatePerS: 0.1, MeanDwellS: 60, MaxVehicles: 12, Seed: 3},
		Outages:  []Outage{{RSU: 0, StartS: 10, EndS: 30}},
		Demand:   &Demand{PeriodS: 60, DayFraction: 0.5, NightSpeedFactor: 0.5},
	}
	cfg, err := s.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 77 || cfg.DurationS != 90 || cfg.Vehicles != 9 {
		t.Errorf("top-level overrides not applied: %+v", cfg)
	}
	if cfg.Mobility != sim.MobilityGrid || cfg.Grid.Rows != 3 || cfg.Grid.Cols != 4 || cfg.Grid.SpacingM != 400 || cfg.Grid.TurnSeed != 5 {
		t.Errorf("grid mapping wrong: %+v", cfg.Grid)
	}
	if cfg.RSURadiusM != 300 {
		t.Errorf("RSURadiusM = %g, want 300", cfg.RSURadiusM)
	}
	if len(cfg.Classes) != 1 || cfg.Classes[0].Name != "bus" || cfg.Classes[0].SpeedMinMps != 8 || cfg.Classes[0].SpeedMaxMps != 12 {
		t.Errorf("classes mapping wrong: %+v", cfg.Classes)
	}
	if cfg.Churn.ArrivalRatePerS != 0.1 || cfg.Churn.Seed != 3 {
		t.Errorf("churn mapping wrong: %+v", cfg.Churn)
	}
	if len(cfg.Outages) != 1 || cfg.Outages[0] != (sim.OutageWindow{RSU: 0, StartS: 10, EndS: 30}) {
		t.Errorf("outage mapping wrong: %+v", cfg.Outages)
	}
	// An unset night sensing factor must compile to the identity.
	if cfg.Demand.NightSpeedFactor != 0.5 || cfg.Demand.NightSensingFactor != 1 {
		t.Errorf("demand mapping wrong: %+v", cfg.Demand)
	}
}

// TestScenarioShardsFieldCompiles pins the schema plumbing that survives
// region sharding: discard_migration_records reaches the compiled
// sim.Config, and the deprecated Shards field, which bench/simmetro.go
// still writes, compiles without error and without any effect, whatever
// its value.
func TestScenarioShardsFieldCompiles(t *testing.T) {
	base := &Scenario{Name: "t", DiscardMigrationRecords: true}
	want, err := base.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !want.DiscardMigrationRecords {
		t.Error("DiscardMigrationRecords not compiled")
	}
	for _, shards := range []int{4, -1} {
		s := *base
		s.Shards = shards
		got, err := s.CompileConfig()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d changed the compiled config:\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

// writeScenarios writes each name → document pair into a fresh directory
// and returns the paths, so the tests below go through Load's
// extension-based format dispatch.
func writeScenarios(t *testing.T, docs map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for name, src := range docs {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

func TestLoadDiscardMigrationRecords(t *testing.T) {
	for _, path := range writeScenarios(t, map[string]string{
		"a.json": `{"name": "a", "discard_migration_records": true}`,
		"b.toml": "name = \"b\"\ndiscard_migration_records = true\n",
	}) {
		s, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !s.DiscardMigrationRecords {
			t.Errorf("%s: discard_migration_records not loaded", path)
		}
	}
}

// TestLoadRejectsShardsKey pins that "shards" left the schema along with
// region-sharded stepping: a document still carrying it fails loudly in
// both formats instead of being ignored.
func TestLoadRejectsShardsKey(t *testing.T) {
	for _, path := range writeScenarios(t, map[string]string{
		"a.json": `{"name": "a", "shards": 3}`,
		"b.toml": "name = \"b\"\nshards = 3\n",
	}) {
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
			t.Errorf("%s: want an unknown-field error naming shards, got %v", path, err)
		}
	}
}

func TestOutageGenDeterministic(t *testing.T) {
	base := Scenario{
		Name: "gen", Seed: 123, DurationS: 200,
		OutageGen: &OutageGen{Count: 4, MeanDurationS: 30},
	}
	cfg1, err := base.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := base.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg1.Outages, cfg2.Outages) {
		t.Fatalf("same scenario compiled twice produced different outages:\n %v\n %v", cfg1.Outages, cfg2.Outages)
	}
	if len(cfg1.Outages) != 4 {
		t.Fatalf("want 4 generated windows, got %d", len(cfg1.Outages))
	}

	other := base
	other.Seed = 124
	cfg3, err := other.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(cfg1.Outages, cfg3.Outages) {
		t.Fatalf("different scenario seeds produced identical generated outages: %v", cfg1.Outages)
	}

	// A dedicated generator seed isolates the windows from the scenario seed.
	pinnedA, pinnedB := base, other
	pinnedA.OutageGen = &OutageGen{Count: 4, MeanDurationS: 30, Seed: 999}
	pinnedB.OutageGen = &OutageGen{Count: 4, MeanDurationS: 30, Seed: 999}
	cfgA, err := pinnedA.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := pinnedB.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgA.Outages, cfgB.Outages) {
		t.Fatalf("pinned OutageGen.Seed should make windows independent of the scenario seed:\n %v\n %v", cfgA.Outages, cfgB.Outages)
	}
}

func TestOutageGenWindowsObservable(t *testing.T) {
	// A vanishing mean duration must clamp every window up to one time
	// step, never produce invisible sub-step outages.
	s := Scenario{
		Name: "tiny", Seed: 5, DurationS: 100,
		OutageGen: &OutageGen{Count: 5, MeanDurationS: 1e-9},
	}
	cfg, err := s.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Outages {
		if dur := w.EndS - w.StartS; dur < cfg.TimeStepS {
			t.Errorf("window %+v is shorter than one time step (%g s)", w, cfg.TimeStepS)
		}
	}
}

func TestOutageGenAppendsToExplicitWindows(t *testing.T) {
	s := Scenario{
		Name: "mixed", Seed: 7, DurationS: 100,
		Outages:   []Outage{{RSU: 1, StartS: 2, EndS: 8}},
		OutageGen: &OutageGen{Count: 2, MeanDurationS: 10},
	}
	cfg, err := s.CompileConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Outages) != 3 {
		t.Fatalf("want 1 explicit + 2 generated windows, got %d: %v", len(cfg.Outages), cfg.Outages)
	}
	if cfg.Outages[0] != (sim.OutageWindow{RSU: 1, StartS: 2, EndS: 8}) {
		t.Fatalf("explicit window must come first: %v", cfg.Outages)
	}
}

func TestBuildPricerDefaults(t *testing.T) {
	// An empty pricer spec selects the oracle.
	s := Scenario{Name: "plain", Seed: 42}
	p, err := s.BuildPricer(sim.PricerBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil pricer")
	}

	// A seedless random pricer adopts the scenario seed: it must price
	// identically to one seeded explicitly.
	s.Pricer = sim.PricerSpec{Name: "random"}
	adopted, err := s.BuildPricer(sim.PricerBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := sim.NewPricerFromSpec(sim.PricerSpec{Name: "random", Seed: 42}, sim.PricerBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := stackelberg.DefaultGame()
	for i := 0; i < 5; i++ {
		a, b := adopted.PriceFor(g), explicit.PriceFor(g)
		if a != b {
			t.Fatalf("draw %d: adopted seed %g != explicit seed %g", i, a, b)
		}
	}
}

func TestCompileUnknownPricer(t *testing.T) {
	s := Scenario{Name: "bad", Pricer: sim.PricerSpec{Name: "nonsense"}}
	if _, err := s.Compile(sim.PricerBuildOptions{}); err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Fatalf("want unknown-pricer error, got %v", err)
	}
}

func TestScenarioValidateNeedsName(t *testing.T) {
	s := Scenario{}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Name") {
		t.Fatalf("want missing-name error, got %v", err)
	}
}
