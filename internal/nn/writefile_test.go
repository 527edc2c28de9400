package nn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// requireNoTemp fails when WriteFile left its temp file behind.
func requireNoTemp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("%s.tmp left behind (stat err %v)", path, err)
	}
}

// TestCheckpointWriteFileRoundTrip writes a checkpoint and reads it back
// unchanged. The file name does not choose the encoding: a .json name
// gets the binary one too.
func TestCheckpointWriteFileRoundTrip(t *testing.T) {
	ck := fullCheckpoint(t)
	for _, name := range []string{"ck.json", "ck.bin"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			if err := ck.WriteFile(path); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			requireNoTemp(t, path)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte(binaryMagic)) {
				t.Fatalf("%s written without the binary magic", name)
			}
			got, err := LoadCheckpoint(data)
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			if !reflect.DeepEqual(got, ck) {
				t.Fatal("checkpoint changed across WriteFile/LoadCheckpoint")
			}
		})
	}
}

// TestCheckpointWriteFileInvalidKeepsExisting pins the atomic write: a
// checkpoint that fails validation (a NaN weight) is refused without
// touching the file already at path and without leaving a temp file.
func TestCheckpointWriteFileInvalidKeepsExisting(t *testing.T) {
	for _, name := range []string{"ck.json", "ck.bin"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			if err := fullCheckpoint(t).WriteFile(path); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := fullCheckpoint(t)
			bad.Params["trunk.l0.W"][3] = math.NaN()
			if err := bad.WriteFile(path); err == nil {
				t.Fatal("checkpoint with a NaN weight written")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed write changed the existing checkpoint")
			}
			requireNoTemp(t, path)
		})
	}
}

// TestCheckpointWriteFileRenameFailure makes the final rename fail (the
// target is a non-empty directory) and checks that the temp file goes.
func TestCheckpointWriteFileRenameFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fullCheckpoint(t).WriteFile(path); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	requireNoTemp(t, path)
	if _, err := os.Stat(filepath.Join(path, "keep")); err != nil {
		t.Fatalf("directory at path disturbed: %v", err)
	}
}
