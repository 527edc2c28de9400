package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// q·n fractional: rank ceil(0.99·150) = 149, where a floored rank
	// would read the 148th value.
	var big []float64
	for i := 1; i <= 150; i++ {
		big = append(big, float64(i))
	}
	if got := percentile(big, 0.99); got != 149 {
		t.Errorf("p99 of 1..150 = %v, want 149", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		var v []float64
		for i := 1; i <= n; i++ {
			v = append(v, float64(i))
		}
		return v
	}
	for _, c := range []struct{ n, want int }{
		{2000, 1980}, // p99 has 20 beyond it
		{1000, 990},  // p99 has exactly 10
		{300, 290},   // p99 (rank 297) would have 3: rank n−10
		{90, 80},
		{5, 1},
	} {
		if got := tail(seq(c.n)); got != float64(c.want) {
			t.Errorf("tail of 1..%d = %v, want %d", c.n, got, c.want)
		}
	}
	if got := tail(nil); got != 0 {
		t.Errorf("tail of an empty sample = %v, want 0", got)
	}
}

func TestByPositionIgnoresOneDisturbedRun(t *testing.T) {
	ms := time.Millisecond
	runs := []sample{
		{1 * ms, 7 * ms, 2 * ms},
		{3 * ms, 5 * ms, 2 * ms},
		{9 * ms, 9 * ms, 9 * ms}, // one run during a host stall
	}
	if got, want := byPosition(runs, ms), []float64{3, 7, 2}; !slices.Equal(got, want) {
		t.Errorf("byPosition = %v, want %v", got, want)
	}
}

func TestSpreadKeepsEvenlySpacedItems(t *testing.T) {
	for _, c := range []struct {
		n    int
		want []int
	}{
		{3, []int{0, 1, 2}},
		{8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{9, []int{0, 2, 4, 6, 8}},
		{16, []int{0, 2, 4, 6, 8, 10, 12, 14}},
		{17, []int{0, 4, 8, 12, 16}},
		{40, []int{0, 8, 16, 24, 32}},
	} {
		s := spread[int]{limit: 8}
		for i := range c.n {
			s.add(i)
		}
		if !slices.Equal(s.kept, c.want) {
			t.Errorf("after %d items kept %v, want %v", c.n, s.kept, c.want)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	encode := func(seed int64) []byte {
		b, err := json.Marshal(requestStream(seed, 600, 10))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := encode(7), encode(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different streams")
	}
	if bytes.Equal(a, encode(8)) {
		t.Fatal("different seeds produced the same stream")
	}
	s := requestStream(7, 600, 10)
	for i, r := range s {
		if r.Read != (i%10 != 9) {
			t.Fatalf("request %d: read %v, want every 10th a write", i, r.Read)
		}
		if n := len(r.Req.VMUs); n < 1 || n > 3 {
			t.Fatalf("request %d has %d VMUs", i, n)
		}
		for _, v := range r.Req.VMUs {
			if v.Alpha < 5 || v.Alpha > 20 || v.DataMB < 100 || v.DataMB > 300 {
				t.Fatalf("request %d VMU out of the paper's ranges: %+v", i, v)
			}
		}
		if d := r.Req.DistanceM; d < 200 || d > 1000 {
			t.Fatalf("request %d distance %v", i, d)
		}
	}
	// The pattern is the same for every seed; only the requests differ.
	for i, r := range requestStream(8, 600, 10) {
		if r.Read != s[i].Read {
			t.Fatalf("request %d: the read/write pattern depends on the seed", i)
		}
	}
	for i, r := range requestStream(7, 50, 1) {
		if r.Read {
			t.Fatalf("request %d of a write-only stream is a read", i)
		}
	}
}

func TestClosedLoopRunsEachIndexOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	closedLoop(8, time.Now().Add(20*time.Millisecond), func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	for i := range len(seen) {
		if seen[i] != 1 {
			t.Fatalf("request %d ran %d times over %d requests", i, seen[i], len(seen))
		}
	}
}

// BENCHMARK.json at the repository root must describe exactly the
// workloads and metrics this program reports, and a description that
// does not must be caught.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	for _, p := range checkSpec("../BENCHMARK.json") {
		t.Error(p)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, bytes.Replace(data, []byte(`"tail_ms"`), []byte(`"p99_ms"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(checkSpec(bad)) == 0 {
		t.Error("a renamed metric went unnoticed")
	}
}
