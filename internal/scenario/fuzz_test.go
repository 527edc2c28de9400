package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioParse feeds hostile bytes to the scenario decoder. The
// property under test: Parse never panics, and any input it accepts is a
// scenario that deterministically compiles — the loader's "a loaded
// scenario always compiles" contract holds even for adversarial inputs.
// The corpus starts from every committed scenario, whole and cut off
// mid-document.
func FuzzScenarioParse(f *testing.F) {
	files, err := filepath.Glob(filepath.Join(scenariosDir, "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed scenarios (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"name": "x", "outage_gen": {"count": 100000, "mean_duration_s": 1e308}}`))
	f.Add([]byte(`{"name":"x","pricer":{"name":"fixed","price":1e999}}`))
	f.Add([]byte(`{"name": "x", "seed": 9223372036854775807}`))
	f.Add([]byte(`{"name": "x", "outages": [[[[[`))
	f.Add([]byte(`{"name": "x", "churn": {"arrival_rate_per_s": -1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		cfg1, err := s.CompileConfig()
		if err != nil {
			t.Fatalf("accepted scenario failed to compile: %v", err)
		}
		cfg2, err := s.CompileConfig()
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}
		if !reflect.DeepEqual(cfg1, cfg2) {
			t.Fatalf("compile is not deterministic:\n %+v\n %+v", cfg1, cfg2)
		}
	})
}
