package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vtmig/internal/rl"
	"vtmig/internal/serve"
)

// fuzzConfig keeps the learner as small as the validators allow and the
// rotation cadence at its tightest, so one baseline state builds in
// milliseconds per fuzz iteration.
func fuzzConfig(dir string) serve.Config {
	ppo := rl.DefaultPPOConfig()
	ppo.Hidden = []int{4}
	ppo.Epochs = 1
	ppo.MiniBatch = 2
	return serve.Config{
		Dir:         dir,
		HistoryLen:  2,
		UpdateEvery: 2,
		Seed:        5,
		PPO:         ppo,
	}
}

// buildFuzzState boots a tiny server, feeds it five quotes (rotations at
// rounds 2 and 4; rotation 2's boundary publishes checkpoint 1 and
// switches the journal to it, carrying rounds 3 and 4, and round 5
// follows), and returns the journal path and its valid bytes. The
// directory then holds checkpoints at ordinals 0 (rounds 0) and 1
// (rounds 2), and the journal binds checkpoint 1 with 3 entries; the
// build fails otherwise, so the fixture cannot silently shrink to the
// boot checkpoint.
func buildFuzzState(t testing.TB, dir string) (string, []byte) {
	s, err := serve.Open(fuzzConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqStream(5) {
		if _, err := s.Quote(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(serve.CheckpointPathFor(dir, 1)); err != nil {
		t.Fatalf("fuzz fixture: checkpoint 1 not published: %v", err)
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	valid, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(valid, []byte("\n"))
	var h struct {
		Snapshots int `json:"snapshots"`
	}
	if err := json.Unmarshal(header, &h); err != nil || h.Snapshots != 1 || bytes.Count(valid, []byte("\n")) != 4 {
		t.Fatalf("fuzz fixture: journal should bind checkpoint 1 with 3 entries (header %s, %v)", header, err)
	}
	return jpath, valid
}

// FuzzJournalRecover feeds hostile journal bytes — torn lines, sequence
// gaps, CRC flips, truncated or malformed headers, arbitrary mutations —
// through the full Open recovery path over a real checkpoint directory.
// The contract: recover to a state derived from a real checkpoint plus
// the parsed entries, or refuse loudly. Never panic, and never silently
// cold-start past the journal.
func FuzzJournalRecover(f *testing.F) {
	_, valid := buildFuzzState(f, f.TempDir())
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:10])           // truncated header
	f.Add(valid[:len(valid)-4]) // torn trailing entry line
	f.Add([]byte("not json at all\n"))
	f.Add(bytes.Replace(valid, []byte(`"checkpoint_crc":`), []byte(`"checkpoint_crc":1`), 1)) // CRC flip
	f.Add(bytes.Replace(valid, []byte(`"seq":1`), []byte(`"seq":3`), 1))                      // sequence gap
	if i := bytes.IndexByte(valid, '\n'); i >= 0 {
		f.Add(append(append([]byte{}, valid[:i+1]...), valid[:i+1]...)) // header where an entry belongs
		f.Add(valid[:i+1])                                              // header only
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		jpath, _ := buildFuzzState(t, dir)
		if err := os.WriteFile(jpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := serve.Open(fuzzConfig(dir))
		if err != nil {
			return // refused loudly — the acceptable outcome for hostile bytes
		}
		st := s.Stats()
		// Whatever opened must be a real checkpoint (ordinal 0 at rounds
		// 0, or ordinal 1 at rounds 2) extended by exactly the entries
		// the journal yielded — anything else is a silent cold-start or
		// an invented state. The valid journal reopens at rounds 5 with 3
		// replayed, so base 2.
		if base := st.Rounds - st.ReplayedRounds; base != 0 && base != 2 {
			t.Errorf("recovered state extends no existing checkpoint: rounds=%d replayed=%d", st.Rounds, st.ReplayedRounds)
		}
		if err := s.Close(); err != nil {
			t.Errorf("closing recovered server: %v", err)
		}
		// A state that opened once must keep opening (recovery is
		// repeatable, not a one-shot salvage).
		s2, err := serve.Open(fuzzConfig(dir))
		if err != nil {
			t.Fatalf("second open of a recovered state: %v", err)
		}
		s2.Close()
	})
}
