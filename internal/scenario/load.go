package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Load reads, parses, and fully validates a .json scenario file; any
// other extension is rejected. Loading is strict: unknown fields,
// malformed syntax, and invalid values all error — a loaded scenario
// always compiles.
func Load(path string) (*Scenario, error) {
	if ext := filepath.Ext(path); !strings.EqualFold(ext, ".json") {
		return nil, fmt.Errorf("scenario: %s: unsupported extension %q (scenario files are .json)", path, ext)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading %s: %w", path, err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Parse strictly decodes and fully validates one JSON scenario document:
// unknown fields and content after the document are errors.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing JSON: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("trailing content after the scenario document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
