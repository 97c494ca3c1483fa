// Package obs is the observability layer behind the paper's analysis rows
// (Figures 4–6) and beyond them: where internal/tm's Stats counters say *how
// often* something happened over a whole run, this package says *how long*
// each execution phase took (power-of-two-bucketed latency histograms),
// *why* each hardware abort happened (a taxonomy joining htm abort codes
// with the algorithm-level cause and the retry ordinal), and *when* events
// clustered (an optional per-thread fixed-size event ring stamped with the
// mem commit ticket).
//
// Everything on the recording path is allocation-free; every Recorder
// method is nil-safe, so a TM thread with observability disabled pays one
// nil-check branch per instrumentation site and nothing else (DESIGN.md
// § Observability has the overhead budget and proof sketch).
package obs

import "math/bits"

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds the value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i).
// 65 buckets cover the full uint64 range.
const histBuckets = 65

// Histogram is a power-of-two-bucketed distribution of uint64 samples
// (latencies in nanoseconds, retry ordinals, ...). The zero value is ready
// to use. Record is allocation-free and branch-light; a Histogram belongs
// to one thread and is merged after workers stop.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// bucketOf returns the bucket index for v: 0 for 0, else floor(log2 v)+1.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the exact sum of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max reports the largest recorded sample (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean reports the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Merge accumulates o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile estimates the q-quantile (0 < q ≤ 1). The estimate resolves to
// the midpoint of the power-of-two bucket holding the quantile sample, so
// its relative error is bounded by the bucket width (≤ 50%); the exact Max
// caps it. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			lo := BucketLow(i)
			hi := bucketHigh(i)
			mid := lo + (hi-lo)/2
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// bucketHigh returns the inclusive upper bound of bucket i.
func bucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<i - 1
}

// Bucket is one non-empty histogram cell: Count samples with values in
// [LowNS, next bucket's LowNS).
type Bucket struct {
	// LowNS is the bucket's inclusive lower bound.
	LowNS uint64 `json:"lo_ns"`
	// Count is the number of samples in the bucket.
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in increasing value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.buckets {
		if c != 0 {
			out = append(out, Bucket{LowNS: BucketLow(i), Count: c})
		}
	}
	return out
}

// LatencySummary is the JSON rendering of one Histogram: the schema block
// shared by the rhserve.v1 endpoint rows (docs/METRICS.md). All durations
// are nanoseconds; quantiles resolve to power-of-two bucket midpoints
// (≤ 50% relative error, capped by the exact MaxNS).
type LatencySummary struct {
	// Count is the number of samples.
	Count uint64 `json:"count"`
	// SumNS is the exact sum of all samples.
	SumNS uint64 `json:"sum_ns"`
	// MaxNS is the exact largest sample.
	MaxNS uint64 `json:"max_ns"`
	// P50NS/P90NS/P99NS/P999NS are quantile estimates.
	P50NS  uint64 `json:"p50_ns"`
	P90NS  uint64 `json:"p90_ns"`
	P99NS  uint64 `json:"p99_ns"`
	P999NS uint64 `json:"p999_ns"`
}

// Summary renders the histogram's latency block. An empty histogram yields
// the zero summary.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		SumNS:  h.Sum(),
		MaxNS:  h.Max(),
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
	}
}
