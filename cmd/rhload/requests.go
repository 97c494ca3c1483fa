package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file holds rhload's request generators: a bounded zipfian key
// sampler and an endpoint-mix picker, both deterministic given the caller's
// seeded *rand.Rand.

// ZipfKeys samples keys in [0, n) with probability proportional to
// 1/(k+1)^s. Unlike math/rand's Zipf it accepts any exponent s >= 0
// (s = 0 is the uniform distribution; the service sweeps use s ∈
// {0, 0.99, 1.2}): the bounded key space lets it precompute the inverse
// CDF once and answer each draw with one uniform variate and a binary
// search. Deterministic given the caller's *rand.Rand.
type ZipfKeys struct {
	n   int
	cdf []float64 // nil for the uniform fast path (s == 0)
}

// maxZipfKeys bounds the precomputed CDF so a mistyped key-space size
// cannot allocate unbounded memory (8 MiB of float64 at the bound).
const maxZipfKeys = 1 << 20

// NewZipfKeys builds a sampler over [0, n) with exponent s. n is clamped
// to [1, maxZipfKeys]; negative s is treated as 0 (uniform).
func NewZipfKeys(n int, s float64) *ZipfKeys {
	if n < 1 {
		n = 1
	}
	if n > maxZipfKeys {
		n = maxZipfKeys
	}
	z := &ZipfKeys{n: n}
	if s <= 0 {
		return z
	}
	z.cdf = make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

// N reports the key-space size.
func (z *ZipfKeys) N() int { return z.n }

// Next draws one key. Rank 0 (the hottest key) is index 0; callers that
// want hot keys spread across cache lines or stripes should permute the
// rank themselves (see ScrambledNext).
func (z *ZipfKeys) Next(rng *rand.Rand) uint64 {
	if z.cdf == nil {
		return uint64(rng.Intn(z.n))
	}
	u := rng.Float64()
	return uint64(sort.SearchFloat64s(z.cdf, u))
}

// ScrambledNext draws one key with the rank order scrambled by a fixed
// multiplicative hash, so the hottest keys land on unrelated slots (and
// therefore unrelated stripes) instead of clustering at the bottom of the
// arena. The scramble is a bijection on [0, n) only when n is a power of
// two; for other sizes it mixes and reduces, which preserves the skew
// profile well enough for load generation.
func (z *ZipfKeys) ScrambledNext(rng *rand.Rand) uint64 {
	k := z.Next(rng)
	h := (k + 1) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h % uint64(z.n)
}

// ReqKind is one service endpoint's request kind.
type ReqKind uint8

const (
	// ReqGet is a single-key transactional read.
	ReqGet ReqKind = iota
	// ReqPut is a single-key transactional write.
	ReqPut
	// ReqCas is a single-key compare-and-swap.
	ReqCas
	// ReqScan is a contiguous multi-key read.
	ReqScan
	// ReqTxn is a multi-op transactional batch.
	ReqTxn

	// NumReqKinds bounds the enum.
	NumReqKinds
)

var reqKindNames = [NumReqKinds]string{"get", "put", "cas", "scan", "txn"}

// String returns the kind's endpoint name.
func (k ReqKind) String() string {
	if k < NumReqKinds {
		return reqKindNames[k]
	}
	return "invalid"
}

// RequestMix is the endpoint mix of a generated request stream. The four
// explicit fractions must sum to at most 1; the remainder is ReqPut.
type RequestMix struct {
	// GetFrac is the fraction of single-key reads.
	GetFrac float64
	// CasFrac is the fraction of compare-and-swaps.
	CasFrac float64
	// ScanFrac is the fraction of contiguous scans.
	ScanFrac float64
	// TxnFrac is the fraction of multi-op TXN batches.
	TxnFrac float64
	// TxnOps is the op count of a generated TXN batch (default 4).
	TxnOps int
	// ScanCount is the key count of a generated scan (default 16).
	ScanCount int
}

// WithDefaults fills zero batch knobs.
func (m RequestMix) WithDefaults() RequestMix {
	if m.TxnOps <= 0 {
		m.TxnOps = 4
	}
	if m.ScanCount <= 0 {
		m.ScanCount = 16
	}
	return m
}

// Validate reports a mix Pick cannot honour: a fraction outside [0, 1],
// or fractions summing above 1, which Pick would silently cut from the
// kinds it tests last (TXN, then PUT).
func (m RequestMix) Validate() error {
	for _, f := range []float64{m.GetFrac, m.CasFrac, m.ScanFrac, m.TxnFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("fraction %g outside [0, 1]", f)
		}
	}
	// The tolerance absorbs float rounding in mixes that sum to exactly 1.
	if sum := m.GetFrac + m.CasFrac + m.ScanFrac + m.TxnFrac; sum > 1+1e-9 {
		return fmt.Errorf("get %g + cas %g + scan %g + txn %g = %.4g > 1",
			m.GetFrac, m.CasFrac, m.ScanFrac, m.TxnFrac, sum)
	}
	return nil
}

// Pick draws one request kind from the mix.
func (m RequestMix) Pick(rng *rand.Rand) ReqKind {
	u := rng.Float64()
	if u < m.GetFrac {
		return ReqGet
	}
	u -= m.GetFrac
	if u < m.CasFrac {
		return ReqCas
	}
	u -= m.CasFrac
	if u < m.ScanFrac {
		return ReqScan
	}
	u -= m.ScanFrac
	if u < m.TxnFrac {
		return ReqTxn
	}
	return ReqPut
}
