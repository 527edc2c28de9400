package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vtmig/internal/serve"
)

// request is one pre-generated quote: what it asks, and whether it goes
// to the read replica instead of the primary.
type request struct {
	Req  serve.QuoteRequest `json:"req"`
	Read bool               `json:"read"`
}

// drawRequest draws one round from the paper's request mix, the same as
// vtmig-loadgen's: 1–3 VMUs with α ∈ [5, 20] and 100–300 MB of twin data,
// at a source–destination distance of 200–1000 m. The draw order is fixed
// so that a seed always yields the same stream.
func drawRequest(rng *rand.Rand) serve.QuoteRequest {
	vmus := make([]serve.QuoteVMU, 1+rng.Intn(3))
	for i := range vmus {
		vmus[i] = serve.QuoteVMU{ID: i, Alpha: 5 + 15*rng.Float64(), DataMB: 100 + 200*rng.Float64()}
	}
	return serve.QuoteRequest{VMUs: vmus, DistanceM: 200 + 800*rng.Float64()}
}

// requestStream draws n requests from the mix. Every writeEvery-th one is
// a write and the rest are reads, in a fixed pattern rather than a random
// one, so that the positions of the writes, and of the PPO phases and
// refreshes that follow them, are the same for every seed: the seed
// changes what is asked, not how the work is laid out. It is built
// completely before a phase starts.
func requestStream(seed int64, n, writeEvery int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		out[i] = request{Req: drawRequest(rng), Read: (i+1)%writeEvery != 0}
	}
	return out
}

// closedLoop runs workers goroutines that each issue requests back to
// back until deadline; do(i) runs request i, indices handed out in order.
func closedLoop(workers int, deadline time.Time, do func(i int)) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
}
