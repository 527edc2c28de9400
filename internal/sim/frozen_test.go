package sim

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vtmig/internal/aotm"
	"vtmig/internal/channel"
	"vtmig/internal/nn"
	"vtmig/internal/stackelberg"
)

// quoteGameStream builds n deterministic, varying quote games — the
// shape of traffic a serving front end prices round after round.
func quoteGameStream(t *testing.T, n int) []*stackelberg.Game {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	games := make([]*stackelberg.Game, n)
	for i := range games {
		k := 1 + rng.Intn(3)
		vmus := make([]stackelberg.VMU, k)
		for j := range vmus {
			vmus[j] = stackelberg.VMU{
				ID:       j,
				Alpha:    5 + rng.Float64()*15,
				DataSize: aotm.FromMB(100 + rng.Float64()*200),
			}
		}
		ch := channel.DefaultParams()
		ch.DistanceM = 200 + rng.Float64()*800
		g, err := stackelberg.NewGame(vmus, ch, 5, 50, 0)
		if err != nil {
			t.Fatalf("game %d: %v", i, err)
		}
		games[i] = g
	}
	return games
}

// TestQuoteBatchMatchesSerial pins contract rule 8 at the pricer layer:
// cutting the same game stream into batches of any size — the pure
// prework (PrepQuote) computed for a whole batch first, then
// PriceForPrepped over its rounds in arrival order, as the serving engine
// does — yields bit-identical prices and bit-identical final learner
// state to pricing every game one at a time.
func TestQuoteBatchMatchesSerial(t *testing.T) {
	const n = 40 // multiple of UpdateEvery(10): ends on a phase boundary
	games := quoteGameStream(t, n)

	serial, err := NewOnlinePricer(onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i, g := range games {
		want[i] = serial.PriceFor(g)
	}

	batched, err := NewOnlinePricer(onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	var scratch stackelberg.EvalScratch
	sizes := []int{1, 4, 16, 3, 16}
	for i, si := 0, 0; i < n; si++ {
		size := sizes[si%len(sizes)]
		if i+size > n {
			size = n - i
		}
		chunk := games[i : i+size]
		// Prework as the engine runs it: one scratch reused across every
		// batch, results in arrival-order slots.
		preps := make([]QuotePrep, size)
		for j, g := range chunk {
			preps[j] = batched.PrepQuote(g, &scratch)
		}
		for j, g := range chunk {
			got[i+j] = batched.PriceForPrepped(g, preps[j])
		}
		i += size
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round %d: batched price %v, serial price %v", i, got[i], want[i])
		}
	}
	ckSerial := mustSnapshot(t, serial)
	ckBatched := mustSnapshot(t, batched)
	if string(ckSerial) != string(ckBatched) {
		t.Fatal("batched intake diverged from serial: final learner checkpoints differ")
	}
}

func mustSnapshot(t *testing.T, p *OnlinePricer) []byte {
	t.Helper()
	ck, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := ck.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFrozenPricerFromCheckpoint pins the checkpoint-fed replica path:
// freezing the primary's rotated checkpoint reproduces, bit for bit, the
// price the primary posts for its first quote after that snapshot — and
// a checkpoint of another shape is refused.
func TestFrozenPricerFromCheckpoint(t *testing.T) {
	games := quoteGameStream(t, 21)
	var cks []*nn.Checkpoint
	cfg := onlineCfg()
	cfg.SnapshotEvery = 1
	cfg.OnSnapshot = func(ck *nn.Checkpoint) { cks = append(cks, ck) }
	p, err := NewOnlinePricer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range games[:20] {
		p.PriceFor(g)
	}
	if len(cks) != 2 {
		t.Fatalf("got %d snapshots after 20 rounds at cadence 10, want 2", len(cks))
	}

	fz, err := NewFrozenPricerFromCheckpoint(onlineCfg(), cks[1])
	if err != nil {
		t.Fatal(err)
	}
	if fz.Rounds() != 20 || fz.Updates() != 2 || fz.Snapshots() != 2 {
		t.Fatalf("frozen counters rounds=%d updates=%d snapshots=%d, want 20/2/2", fz.Rounds(), fz.Updates(), fz.Snapshots())
	}
	if got, want := fz.PriceFor(games[20]), p.PriceFor(games[20]); got != want {
		t.Fatalf("frozen price %v, primary's first post-snapshot price %v", got, want)
	}

	// Concurrent quoting is safe: the frozen pricer is immutable.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if fz.PriceFor(games[i%len(games)]) != fz.Price() {
					panic("frozen price drifted")
				}
			}
		}()
	}
	wg.Wait()

	// A weights-only checkpoint neither freezes nor resumes: both validate
	// the one checkpoint shape first.
	weightsOnly := *cks[1]
	weightsOnly.Opt, weightsOnly.RNG = nil, nil
	if _, err := NewFrozenPricerFromCheckpoint(onlineCfg(), &weightsOnly); err == nil || !strings.Contains(err.Error(), "no optimizer ('O') section") {
		t.Fatalf("weights-only freeze: %v, want the missing optimizer section named", err)
	}
	if _, err := NewOnlinePricerFromCheckpoint(onlineCfg(), &weightsOnly); err == nil {
		t.Fatal("resuming from a weights-only checkpoint did not fail")
	}

	// Config misuses are refused loudly.
	badCfg := onlineCfg()
	badCfg.Agent = p.Agent()
	if _, err := NewFrozenPricerFromCheckpoint(badCfg, cks[1]); err == nil {
		t.Fatal("non-nil Agent was not refused")
	}
	badCfg = onlineCfg()
	badCfg.HistoryLen = 7
	if _, err := NewFrozenPricerFromCheckpoint(badCfg, cks[1]); err == nil {
		t.Fatal("history-length mismatch was not refused")
	}
	if _, err := NewFrozenPricerFromCheckpoint(onlineCfg(), &nn.Checkpoint{}); err == nil {
		t.Fatal("checkpoint without a pricer section was not refused")
	}
}
