package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of sorted: the value at
// rank ceil(q·n). Flooring the rank instead understates every tail
// percentile whenever q·n is fractional. An empty sample yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tail returns the nearest-rank p99 of sorted, or, when fewer than ten
// values lie beyond that rank, the value with exactly ten beyond it (rank
// n−10): the highest percentile the sample can support. An empty sample
// yields 0.
func tail(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := max(min(int(math.Ceil(0.99*float64(n))), n-10), 1)
	return sorted[rank-1]
}

// quartiles returns the three cut points statistics.quantiles(values, n=4)
// gives in Python (its default "exclusive" method), so the repeat mode
// reports exactly the spread a Python reader of the same values computes.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	var out [3]float64
	ld := len(data)
	switch ld {
	case 0:
		return out
	case 1:
		return [3]float64{data[0], data[0], data[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

// median returns the middle value of values (the mean of the two middle
// values for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// sample is a set of durations summarized as nearest-rank percentiles.
type sample []time.Duration

// sorted returns the sample in the given unit, ascending.
func (s sample) sorted(unit time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

func (s sample) pct(q float64, unit time.Duration) float64 { return percentile(s.sorted(unit), q) }

func (s sample) tail(unit time.Duration) float64 { return tail(s.sorted(unit)) }

func (s sample) mean(unit time.Duration) float64 { return mean(s.sorted(unit)) }

func (s sample) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// byPosition takes runs that each time the same sequence of deterministic
// operations and returns, in unit and in sequence order, each operation's
// median time over the runs. Host noise in any one run then moves no
// operation's time, and percentiles over the result describe the sequence
// itself.
func byPosition(runs []sample, unit time.Duration) []float64 {
	out := make([]float64, len(runs[0]))
	at := make([]float64, len(runs))
	for i := range out {
		for k, run := range runs {
			at[k] = float64(run[i]) / float64(unit)
		}
		out[i] = median(at)
	}
	return out
}

// sortedCopy returns values sorted ascending, leaving values as it was.
func sortedCopy(values []float64) []float64 {
	out := slices.Clone(values)
	sort.Float64s(out)
	return out
}
