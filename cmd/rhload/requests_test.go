package main

import (
	"math/rand"
	"testing"
)

func TestZipfKeysBoundsAndDeterminism(t *testing.T) {
	for _, s := range []float64{0, 0.99, 1.2} {
		z := NewZipfKeys(1000, s)
		a := rand.New(rand.NewSource(42))
		b := rand.New(rand.NewSource(42))
		for i := 0; i < 5000; i++ {
			ka, kb := z.Next(a), z.Next(b)
			if ka != kb {
				t.Fatalf("s=%g: draw %d diverged (%d vs %d) with equal seeds", s, i, ka, kb)
			}
			if ka >= 1000 {
				t.Fatalf("s=%g: key %d out of range", s, ka)
			}
		}
	}
}

func TestZipfKeysSkew(t *testing.T) {
	const n, draws = 1000, 20000
	rng := rand.New(rand.NewSource(7))
	counts := func(s float64) (top10 int) {
		z := NewZipfKeys(n, s)
		for i := 0; i < draws; i++ {
			if z.Next(rng) < 10 {
				top10++
			}
		}
		return top10
	}
	uniform := counts(0)
	skewed := counts(0.99)
	heavier := counts(1.2)
	// Uniform puts ~1% of draws on the top 10 ranks; zipf 0.99 puts a large
	// multiple of that there, and 1.2 more still.
	if skewed < 5*uniform {
		t.Errorf("zipf 0.99 top-10 mass %d not ≫ uniform %d", skewed, uniform)
	}
	if heavier <= skewed {
		t.Errorf("zipf 1.2 top-10 mass %d not > zipf 0.99 %d", heavier, skewed)
	}
}

func TestZipfKeysScramble(t *testing.T) {
	z := NewZipfKeys(1024, 1.2)
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		k := z.ScrambledNext(rng)
		if k >= 1024 {
			t.Fatalf("scrambled key %d out of range", k)
		}
		seen[k]++
	}
	// The hot mass must not sit on contiguous low keys after scrambling.
	low := 0
	for k, c := range seen {
		if k < 10 {
			low += c
		}
	}
	if low > 2000 {
		t.Errorf("scramble left %d/10000 draws on keys <10 (hot ranks not dispersed)", low)
	}
}

func TestZipfKeysClamps(t *testing.T) {
	if got := NewZipfKeys(0, 1).N(); got != 1 {
		t.Errorf("N(0 clamped) = %d, want 1", got)
	}
	if got := NewZipfKeys(1<<30, 1).N(); got != maxZipfKeys {
		t.Errorf("N(1<<30 clamped) = %d, want %d", got, maxZipfKeys)
	}
	z := NewZipfKeys(1, 2)
	if k := z.Next(rand.New(rand.NewSource(1))); k != 0 {
		t.Errorf("single-key sampler drew %d", k)
	}
}

func TestRequestMixPick(t *testing.T) {
	mix := RequestMix{GetFrac: 0.5, CasFrac: 0.1, ScanFrac: 0.1, TxnFrac: 0.1}.WithDefaults()
	if mix.TxnOps != 4 || mix.ScanCount != 16 {
		t.Fatalf("defaults: %+v", mix)
	}
	rng := rand.New(rand.NewSource(3))
	var counts [NumReqKinds]int
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[mix.Pick(rng)]++
	}
	fracs := map[ReqKind]float64{ReqGet: 0.5, ReqCas: 0.1, ReqScan: 0.1, ReqTxn: 0.1, ReqPut: 0.2}
	for kind, want := range fracs {
		got := float64(counts[kind]) / draws
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("%s fraction = %.3f, want %.2f±0.03", kind, got, want)
		}
	}
}

func TestReqKindNames(t *testing.T) {
	want := []string{"get", "put", "cas", "scan", "txn"}
	for k := ReqKind(0); k < NumReqKinds; k++ {
		if k.String() != want[k] {
			t.Errorf("kind %d name %q, want %q", k, k.String(), want[k])
		}
	}
	if NumReqKinds.String() != "invalid" {
		t.Errorf("out-of-range name %q", NumReqKinds.String())
	}
}
