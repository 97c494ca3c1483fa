package serve_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhnorec/internal/serve"
)

// TestStickyRoutingChurnStress is the -race exercise for the worker pool:
// many client identities (so every worker sees traffic and identities churn
// across workers), concurrent transfers between hot keys via TXN, read-only
// conservation probes via GET, and concurrent metrics snapshots racing the
// live workers. Many goroutines run chains on one worker, so any access
// to worker state outside its mutex is a -race failure; any torn transfer
// is an atomicity failure.
func TestStickyRoutingChurnStress(t *testing.T) {
	// Writers all target one hot pair (keys 0 and 1), each txn writing a
	// split of the fixed total — whichever txn commits last, the pair sums
	// to 2*initial, so a torn read is unambiguously an atomicity bug.
	// Keys 2.. take non-invariant noise traffic (puts, scans, cas) purely
	// to churn the routing and batching machinery.
	const (
		initial = 1000
		clients = 16
	)
	s, err := serve.New(serve.Config{
		Keys: 64, Workers: 4, BatchMax: 8, QueueDepth: 64,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Do("seeder", serve.EpTxn, []serve.Op{
		{Kind: serve.OpPut, Key: 0, Val: initial},
		{Kind: serve.OpPut, Key: 1, Val: initial},
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		torn    atomic.Int64
		txnOK   atomic.Int64
		readsOK atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; !stop.Load(); i++ {
				// Churn: each request uses a fresh identity, so routing
				// hashes spray across the pool rather than pinning.
				id := fmt.Sprintf("client-%d-%d", c, i%5)
				switch rng.Intn(4) {
				case 0:
					// Read-only probe of the invariant pair.
					res, err := s.Do(id, serve.EpGet, []serve.Op{
						{Kind: serve.OpGet, Key: 0},
						{Kind: serve.OpGet, Key: 1},
					})
					if err != nil {
						continue
					}
					if res[0].Val+res[1].Val != 2*initial {
						torn.Add(1)
					} else {
						readsOK.Add(1)
					}
				case 1:
					// Atomic rebalance of the pair: a new conserved split.
					d := uint64(rng.Intn(initial))
					_, err := s.Do(id, serve.EpTxn, []serve.Op{
						{Kind: serve.OpGet, Key: 0},
						{Kind: serve.OpPut, Key: 0, Val: initial - d},
						{Kind: serve.OpPut, Key: 1, Val: initial + d},
					})
					if err == nil {
						txnOK.Add(1)
					}
				default:
					// Routing/batching noise outside the invariant pair.
					k := uint64(2 + rng.Intn(60))
					switch rng.Intn(3) {
					case 0:
						s.Do(id, serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: k, Val: rng.Uint64() >> 1}})
					case 1:
						s.Do(id, serve.EpCas, []serve.Op{{Kind: serve.OpCas, Key: k, Old: 0, Val: 5}})
					default:
						s.Do(id, serve.EpScan, []serve.Op{{Kind: serve.OpScan, Key: 2, Count: 16}})
					}
				}
			}
		}(c)
	}

	// Metrics snapshots race the live workers (copied under each worker's lock).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d := s.Snapshot()
			if d.SchemaVersion != "rhserve.v1" {
				torn.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("%d conservation violations", n)
	}
	if txnOK.Load() == 0 || readsOK.Load() == 0 {
		t.Fatalf("stress made no progress (txn=%d reads=%d)", txnOK.Load(), readsOK.Load())
	}
}
