package main

import (
	"math"
	"sort"
)

// summary is the five-number description of one metric's samples inside
// a run (reps, set-up cycles).  Value is the reported number, under one
// key on every metric: the median of a count (summarize), the best
// sample of a timing (summarizeBest).
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// Samples are the end-to-end metrics' repetitions in the order taken,
	// so another estimator can be tried on a document already made.
	Samples []float64 `json:"samples,omitempty"`
}

// spread is the inter-quartile distance as a share of the median, the
// quantity every bound in BENCHMARK.json is compared with.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// so the spreads printed here are the ones the driver computes.  Fewer
// than two samples have no spread: all three are the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

func summarize(xs []float64, unit string) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{Unit: unit}
	}
	q1, q2, q3 := quartiles(s)
	return summary{Value: q2, Unit: unit, Min: s[0], Q1: q1, Median: q2, Q3: q3, Max: s[len(s)-1], N: len(s), Samples: xs}
}

// summarizeBest is summarize for a timing, reporting the best sample:
// the maximum where higher is better, the minimum where lower is.  What
// disturbs a repetition on a shared host only ever slows it (arithmetic
// runs within 1 % from minute to minute here, the memory system the
// neighbours share does not), so the best of 39 repetitions is the
// program's speed and the median adds the neighbours' load.  Over seven
// passes of ten runs per workload the pass medians moved by up to 57 %
// with the median of the repetitions, 44 % with their best tenth and 18 %
// with the best (README.md, "Run-to-run agreement").  The quartiles stay
// in the document.
func summarizeBest(xs []float64, unit, better string) summary {
	s := summarize(xs, unit)
	s.Value = s.Min
	if better == higher {
		s.Value = s.Max
	}
	return s
}

// point wraps a single measured number in the summary shape.
func point(v float64, unit string) summary {
	return summary{Value: v, Unit: unit, Min: v, Q1: v, Median: v, Q3: v, Max: v, N: 1}
}

// slope is the least-squares slope of ys over xs; 0 with fewer than two
// points or no spread in xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
