package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointOrdinalsPastSixDigits pins pruning and replica discovery
// across the six-digit boundary of checkpoint names: ordinal 1,000,000
// is checkpoint-1000000.bin. With files 999,999 … 1,000,003, bound
// 1,000,003 and keep 2, the prune must leave exactly 1,000,002 and
// 1,000,003 (and the names that are not checkpoints), and
// latestCheckpoint must return 1,000,003.
func TestCheckpointOrdinalsPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	const bound, keep = 1_000_003, 2
	foreign := []string{"checkpoint-abc.bin", "checkpoint-.bin", "checkpoint--1.bin"}
	var names []string
	for n := 999_999; n <= bound; n++ {
		names = append(names, checkpointPath(dir, n))
	}
	for _, f := range foreign {
		names = append(names, filepath.Join(dir, f))
	}
	for _, name := range names {
		if err := os.WriteFile(name, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := pruneCheckpoints(dir, bound, keep); err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "checkpoint--1.bin"), filepath.Join(dir, "checkpoint-.bin"),
		checkpointPath(dir, 1_000_002), checkpointPath(dir, 1_000_003), filepath.Join(dir, "checkpoint-abc.bin")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prune left %v, want %v", got, want)
	}
	path, ordinal, err := latestCheckpoint(dir)
	if err != nil || path != checkpointPath(dir, bound) || ordinal != bound {
		t.Fatalf("latestCheckpoint = %s, %d, %v; want %s, %d", path, ordinal, err, checkpointPath(dir, bound), bound)
	}
}
