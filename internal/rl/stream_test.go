package rl

import "testing"

// streamTransition is one precomputed external transition for the
// StreamCollector tests.
type streamTransition struct {
	obs, raw            []float64
	logP, reward, value float64
	done                bool
	next                []float64
}

// streamPPOCfg returns a small fast learner configuration for the stream
// tests.
func streamPPOCfg(seed int64) PPOConfig {
	cfg := DefaultPPOConfig()
	cfg.Seed = seed
	cfg.MiniBatch = 8
	cfg.Epochs = 3
	return cfg
}

// makeStream precomputes n transitions with an independent behavior
// policy on the deterministic allocEnv.
func makeStream(t *testing.T, n int) []streamTransition {
	t.Helper()
	env := newAllocEnv(6)
	actor := NewPPO(6, 1, []float64{0}, []float64{1}, streamPPOCfg(11))
	stream := make([]streamTransition, 0, n)
	obs := append([]float64(nil), env.Reset()...)
	for k := 0; k < n; k++ {
		raw, envAct, logP, value := actor.SelectAction(obs)
		next, reward, done := env.Step(envAct)
		tr := streamTransition{
			obs:    obs,
			raw:    append([]float64(nil), raw...),
			logP:   logP,
			reward: reward,
			value:  value,
			done:   done,
			next:   append([]float64(nil), next...),
		}
		stream = append(stream, tr)
		obs = tr.next
		if done {
			obs = append([]float64(nil), env.Reset()...)
		}
	}
	return stream
}

// TestStreamCollectorUpdateCadence pins the |I|-round update schedule and
// the Flush semantics.
func TestStreamCollectorUpdateCadence(t *testing.T) {
	stream := makeStream(t, 25)
	agent := NewPPO(len(stream[0].obs), 1, []float64{0}, []float64{1}, streamPPOCfg(3))
	col := NewStreamCollector(agent, 10)
	for k, tr := range stream {
		stats, ran := col.Add(tr.obs, tr.raw, tr.logP, tr.reward, tr.value, tr.done, tr.next)
		wantRan := (k+1)%10 == 0
		if ran != wantRan {
			t.Fatalf("transition %d: ran=%v, want %v", k, ran, wantRan)
		}
		if ran && stats.Samples == 0 {
			t.Fatalf("transition %d: phase ran with zero samples", k)
		}
	}
	if col.Updates() != 2 || col.Pending() != 5 || col.Total() != 25 {
		t.Fatalf("updates=%d pending=%d total=%d, want 2/5/25", col.Updates(), col.Pending(), col.Total())
	}
	last := stream[len(stream)-1]
	if _, ran := col.Flush(last.done, last.next); !ran {
		t.Fatal("Flush with a partial segment did not run")
	}
	if col.Updates() != 3 || col.Pending() != 0 {
		t.Fatalf("after Flush: updates=%d pending=%d", col.Updates(), col.Pending())
	}
	if _, ran := col.Flush(last.done, last.next); ran {
		t.Fatal("empty Flush ran an update")
	}
	if col.LastStats().Samples == 0 {
		t.Fatal("LastStats not retained")
	}
}

// TestStreamCollectorAllocationFree pins that the steady-state stream
// loop — staging plus periodic updates — does not allocate once the
// arenas and update scratch have grown.
func TestStreamCollectorAllocationFree(t *testing.T) {
	stream := makeStream(t, 16)
	agent := NewPPO(len(stream[0].obs), 1, []float64{0}, []float64{1}, streamPPOCfg(3))
	col := NewStreamCollector(agent, 8)
	feed := func() {
		for _, tr := range stream {
			col.Add(tr.obs, tr.raw, tr.logP, tr.reward, tr.value, tr.done, tr.next)
		}
	}
	feed() // warm-up grows arenas, minibatch scratch, Adam state
	if allocs := testing.AllocsPerRun(5, feed); allocs > 0 {
		t.Fatalf("steady-state stream loop allocates %.1f times per pass", allocs)
	}
}

// TestStreamCollectorValidation pins the constructor contract.
func TestStreamCollectorValidation(t *testing.T) {
	agent := NewPPO(2, 1, []float64{-1}, []float64{1}, streamPPOCfg(1))
	for _, bad := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("updateEvery=%d accepted", bad)
				}
			}()
			NewStreamCollector(agent, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil agent accepted")
			}
		}()
		NewStreamCollector(nil, 10)
	}()
}
