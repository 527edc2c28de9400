package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vtmig/internal/nn"
)

// Checkpoint files are named by the pricer's snapshot ordinal —
// checkpoint-000000.bin is the boot snapshot, checkpoint-000001.bin the
// first rotation, and so on — in the compact binary encoding. Until a
// rotation's checkpoint is published it lives at the same name plus
// ".tmp", which neither recovery nor replicas ever open. The journal
// header names the ordinal it extends, so recovery never guesses which
// checkpoint a journal belongs to.
const (
	checkpointPrefix  = "checkpoint-"
	checkpointSuffix  = ".bin"
	checkpointPattern = checkpointPrefix + "%06d" + checkpointSuffix
)

// checkpointPath returns the file a given snapshot ordinal lives at.
func checkpointPath(dir string, snapshots int) string {
	return filepath.Join(dir, fmt.Sprintf(checkpointPattern, snapshots))
}

// checkpointOrdinal parses the snapshot ordinal out of a checkpoint file
// name. checkpointPattern pads to six digits but does not stop there:
// ordinal 1,000,000 is checkpoint-1000000.bin, so the digits run from
// the prefix to the suffix, however many there are. ok is false for any
// other name.
func checkpointOrdinal(name string) (n int, ok bool) {
	digits, ok := strings.CutPrefix(name, checkpointPrefix)
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, checkpointSuffix)
	if !ok || digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// checkpointCRC returns the value a journal header binds a checkpoint
// file to: the CRC-32 of its body, which the binary encoding stores as
// its last four bytes, little-endian. data is a whole encoded checkpoint,
// which is always longer than that. (The CRC-32 of the whole file would
// bind nothing: for any file that ends in its own CRC-32 it is the one
// residue 0x2144DF1C.)
func checkpointCRC(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[len(data)-4:])
}

// writeCheckpoint durably publishes ck at path in one synchronous step —
// stage, then publish — and returns its checkpointCRC, the value the
// journal header binds to. Only the boot checkpoint takes this path;
// rotations stage on the persistence goroutine and publish one rotation
// later (see diskStore).
func writeCheckpoint(path string, ck *nn.Checkpoint) (uint32, error) {
	data, err := ck.AppendBinary(nil)
	if err != nil {
		return 0, fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	published, err := stageCheckpoint(path, data)
	if err == nil && !published {
		err = publishCheckpoint(path)
	}
	return checkpointCRC(data), err
}

// stageCheckpoint makes data durable at path's temp name (create, write,
// fsync, close) for publishCheckpoint to rename into place later. When
// path itself already exists — a replay re-reaching a rotation the
// crashed process already published — the bytes must be identical:
// replay is deterministic, so a difference means the on-disk state and
// the journal diverged, and the stage refuses instead of papering over
// it. Then nothing is written and published reports true.
func stageCheckpoint(path string, data []byte) (published bool, err error) {
	if old, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(old, data) {
			return false, fmt.Errorf("serve: replayed checkpoint %s differs from the one on disk — journal and checkpoints no longer describe the same run", path)
		}
		return true, nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return false, fmt.Errorf("serve: creating checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("serve: writing checkpoint: %w", err)
	}
	return false, nil
}

// publishCheckpoint renames a staged checkpoint into place at path, where
// recovery and read replicas find it.
func publishCheckpoint(path string) error {
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("serve: publishing checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads the checkpoint at path, returning the decoded
// checkpoint and its checkpointCRC for the journal-binding check. A
// missing file is reported with os.IsNotExist semantics via the wrapped
// error.
func loadCheckpoint(path string) (*nn.Checkpoint, uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	ck, err := nn.LoadCheckpoint(data)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: loading checkpoint %s: %w", path, err)
	}
	return ck, checkpointCRC(data), nil
}

// pruneCheckpoints removes checkpoint files with ordinals the retention
// policy no longer needs: every ordinal up to bound − keep, where bound
// is the ordinal the on-disk journal binds to, so the keep newest
// ordinals bound − keep + 1 … bound survive. The bound checkpoint itself
// is never pruned (keep is at least 1) — deleting it would orphan the
// journal. Prune errors are reported but recovery never depends on a
// prune having happened.
func pruneCheckpoints(dir string, bound, keep int) error {
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
	if err != nil {
		return err
	}
	var firstErr error
	for _, m := range matches {
		n, ok := checkpointOrdinal(filepath.Base(m))
		if !ok {
			continue // not ours
		}
		if n <= bound-keep {
			if err := os.Remove(m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
