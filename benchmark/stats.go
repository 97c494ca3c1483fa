package main

import (
	"math"
	"sort"
)

// Exact latency recording: raw samples, sorted, nearest-rank percentiles.
// obs.Hist's power-of-two buckets cannot resolve a 10 % bound, so no
// reported number goes through it.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, and false when fewer than tail samples lie beyond it — a tail
// percentile resting on a handful of samples is not reported.
func percentile(sorted []float64, p float64, tail int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < tail {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// (the default "exclusive" method) computes them, because that is the rule
// the acceptance procedure applies to ten runs.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// i-th of 4 cut points: position i*(n+1)/4, 1-based; like Python,
		// clamp the index first and extrapolate from the clamped pair.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// betterQuartile is a run's value from its trials' values: the upper
// quartile of a higher-is-better metric, the lower quartile of a
// lower-is-better one. The host disturbs trials in one direction only — a
// busy neighbour makes a process slower, never faster — and in episodes
// that can cover half of a run's trials, so the median over trials moved
// with the host (interquartile spread over ten runs up to 22 % of the
// median); the quartile on the undisturbed side held 14 % on the same data.
func betterQuartile(v []float64, higherIsBetter bool) float64 {
	q1, q3 := quartiles(v)
	if higherIsBetter {
		return q3
	}
	return q1
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// interval is a closed-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent; only
// the union of their parts inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	c := append([]interval(nil), children...)
	sort.Slice(c, func(i, j int) bool { return c[i].start < c[j].start })
	covered := int64(0)
	at := parent.start
	for _, iv := range c {
		s, e := iv.start, iv.end
		if s < at {
			s = at
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			covered += e - s
			at = e
		}
	}
	return parent.end - parent.start - covered
}
