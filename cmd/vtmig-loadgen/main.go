// Command vtmig-loadgen drives concurrent synthetic quote traffic
// against one or more running vtmig-serve daemons and reports throughput
// and latency percentiles per target. Each client goroutine draws rounds
// from its own seeded stream — 1–3 VMUs with the paper's α ∈ [5, 20] and
// data sizes in [100, 300] MB, distances in [200, 1000] m — and the
// clients share a global request budget, so the total load is exact
// regardless of how the clients interleave. With several -addr targets
// (comma-separated, e.g. a primary plus its read replicas) the clients
// are spread round-robin across them and the report carries one
// per-target block besides the aggregate.
//
// Usage:
//
//	vtmig-loadgen -addr http://localhost:8080[,http://localhost:8081,...]
//	              [-clients 256] [-requests 10000] [-seed 1]
//	              [-out loadgen.json]
//
// The report (stdout, or -out as JSON) records requests, errors, wall
// seconds, requests/second, and nearest-rank p50/p95/p99 quote latency
// in milliseconds — aggregate and per target.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vtmig-loadgen:", err)
		os.Exit(1)
	}
}

// TargetReport is one target's slice of the load: the requests its
// clients completed against it, with that target's own throughput and
// nearest-rank latency percentiles.
type TargetReport struct {
	Addr     string  `json:"addr"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// Report is the loadgen's result document: the aggregate across all
// targets plus one TargetReport per -addr entry.
type Report struct {
	Addrs    []string       `json:"addrs"`
	Clients  int            `json:"clients"`
	Requests int            `json:"requests"`
	Errors   int            `json:"errors"`
	Seconds  float64        `json:"seconds"`
	RPS      float64        `json:"rps"`
	P50Ms    float64        `json:"p50_ms"`
	P95Ms    float64        `json:"p95_ms"`
	P99Ms    float64        `json:"p99_ms"`
	Targets  []TargetReport `json:"targets"`
}

type quoteVMU struct {
	ID     int     `json:"id"`
	Alpha  float64 `json:"alpha"`
	DataMB float64 `json:"data_mb"`
}

type quoteRequest struct {
	VMUs      []quoteVMU `json:"vmus"`
	DistanceM float64    `json:"distance_m,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vtmig-loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://localhost:8080", "vtmig-serve base URL, or a comma-separated list (primary plus replicas)")
		clients  = fs.Int("clients", 256, "concurrent client goroutines, spread round-robin across the targets")
		requests = fs.Int("requests", 10000, "total quote requests across all clients and targets")
		seed     = fs.Int64("seed", 1, "base seed for the synthetic round streams")
		out      = fs.String("out", "", "write the JSON report to this file (default stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients <= 0 || *requests <= 0 {
		return fmt.Errorf("-clients and -requests must be positive")
	}
	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			targets = append(targets, a)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("-addr lists no targets")
	}
	if *clients < len(targets) {
		return fmt.Errorf("%d clients cannot cover %d targets; raise -clients", *clients, len(targets))
	}

	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = *clients
	transport.MaxIdleConnsPerHost = *clients
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	var (
		next       atomic.Int64 // shared request budget
		wg         sync.WaitGroup
		latencies  = make([][]time.Duration, *clients)
		clientErrs = make([]int, *clients)
	)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := targets[c%len(targets)] + "/v1/quote"
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			var lats []time.Duration
			for {
				if next.Add(1) > int64(*requests) {
					break
				}
				body, _ := json.Marshal(randRound(rng))
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					clientErrs[c]++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					clientErrs[c]++
					continue
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	perTarget := make([][]time.Duration, len(targets))
	perTargetErrs := make([]int, len(targets))
	for c := 0; c < *clients; c++ {
		tg := c % len(targets)
		all = append(all, latencies[c]...)
		perTarget[tg] = append(perTarget[tg], latencies[c]...)
		perTargetErrs[tg] += clientErrs[c]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep := Report{
		Addrs:    targets,
		Clients:  *clients,
		Requests: *requests,
		Seconds:  wall.Seconds(),
		RPS:      float64(len(all)) / wall.Seconds(),
		P50Ms:    percentileMs(all, 0.50),
		P95Ms:    percentileMs(all, 0.95),
		P99Ms:    percentileMs(all, 0.99),
	}
	for tg, lats := range perTarget {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.Errors += perTargetErrs[tg]
		rep.Targets = append(rep.Targets, TargetReport{
			Addr:     targets[tg],
			Requests: len(lats) + perTargetErrs[tg],
			Errors:   perTargetErrs[tg],
			RPS:      float64(len(lats)) / wall.Seconds(),
			P50Ms:    percentileMs(lats, 0.50),
			P95Ms:    percentileMs(lats, 0.95),
			P99Ms:    percentileMs(lats, 0.99),
		})
	}
	fmt.Fprintf(stdout, "vtmig-loadgen: %d ok / %d errors in %.2fs — %.0f req/s, p50 %.3fms p95 %.3fms p99 %.3fms\n",
		len(all), rep.Errors, rep.Seconds, rep.RPS, rep.P50Ms, rep.P95Ms, rep.P99Ms)
	if len(targets) > 1 {
		for _, tr := range rep.Targets {
			fmt.Fprintf(stdout, "  %s: %d ok / %d errors — %.0f req/s, p50 %.3fms p95 %.3fms p99 %.3fms\n",
				tr.Addr, tr.Requests-tr.Errors, tr.Errors, tr.RPS, tr.P50Ms, tr.P95Ms, tr.P99Ms)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, *requests)
	}
	return nil
}

// randRound draws one synthetic pricing round from the client's stream.
func randRound(rng *rand.Rand) quoteRequest {
	vmus := make([]quoteVMU, 1+rng.Intn(3))
	for i := range vmus {
		vmus[i] = quoteVMU{
			ID:     i,
			Alpha:  5 + 15*rng.Float64(),
			DataMB: 100 + 200*rng.Float64(),
		}
	}
	return quoteRequest{VMUs: vmus, DistanceM: 200 + 800*rng.Float64()}
}

// percentileMs returns the q-quantile of the sorted latency slice in
// milliseconds: the nearest-rank value, at rank ceil(q·n). Flooring the
// rank instead understates every tail percentile whenever q·n is
// fractional.
func percentileMs(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}
