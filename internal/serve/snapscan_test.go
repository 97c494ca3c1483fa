package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/bench"
	"rhnorec/internal/serve"
)

// TestSnapshotScanAtomicity: single-scan read-only requests are answered
// from a seqlock-validated memory snapshot instead of an instrumented
// transaction. A writer keeps two adjacent keys summing to a constant via
// TXN; every scan covering the pair must agree — a torn snapshot is
// unambiguous. The ledger must account every eligible scan as a hit or a
// transactional fallback.
func TestSnapshotScanAtomicity(t *testing.T) {
	const total = 10000
	s, err := serve.New(serve.Config{Keys: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do("seeder", serve.EpTxn, []serve.Op{
		{Kind: serve.OpPut, Key: 0, Val: total},
		{Kind: serve.OpPut, Key: 1, Val: 0},
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(0); !stop.Load(); v = (v + 37) % total {
			s.Do("writer", serve.EpTxn, []serve.Op{
				{Kind: serve.OpPut, Key: 0, Val: v},
				{Kind: serve.OpPut, Key: 1, Val: total - v},
			})
		}
	}()

	const scans = 2000
	for i := 0; i < scans; i++ {
		res, err := s.Do("reader", serve.EpScan, []serve.Op{{Kind: serve.OpScan, Key: 0, Count: 2}})
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if len(res) != 1 || len(res[0].Vals) != 2 {
			t.Fatalf("scan %d results %+v", i, res)
		}
		if sum := res[0].Vals[0] + res[0].Vals[1]; sum != total {
			t.Fatalf("scan %d tore: %d + %d != %d", i, res[0].Vals[0], res[0].Vals[1], sum)
		}
	}
	stop.Store(true)
	wg.Wait()

	d := s.Snapshot()
	if d.SnapScan == nil {
		t.Fatal("no snapscan ledger after eligible scans")
	}
	if d.SnapScan.Attempts < scans {
		t.Fatalf("snapscan attempts %d < %d scans (eligible scans bypassed the fast path)", d.SnapScan.Attempts, scans)
	}
	if d.SnapScan.Hits+d.SnapScan.Fallbacks != d.SnapScan.Attempts {
		t.Fatalf("snapscan ledger does not balance: %d hits + %d fallbacks != %d attempts",
			d.SnapScan.Hits, d.SnapScan.Fallbacks, d.SnapScan.Attempts)
	}

	// Quiescent scans must all land on the fast path: with no writer left,
	// the first validation pass is clean.
	before := s.Snapshot().SnapScan.Hits
	const quiet = 50
	for i := 0; i < quiet; i++ {
		if _, err := s.Do("reader", serve.EpScan, []serve.Op{{Kind: serve.OpScan, Key: 0, Count: 2}}); err != nil {
			t.Fatalf("quiescent scan %d: %v", i, err)
		}
	}
	if after := s.Snapshot().SnapScan.Hits; after-before != quiet {
		t.Fatalf("quiescent scans hit %d of %d times, want all", after-before, quiet)
	}
}

// TestSnapshotScanLeadingOnly: a snapshot is taken before its batch's
// transaction commits, so only a scan that no other request precedes in
// the drain may use it. One drain of [GET, SCAN] ledgers one fallback and
// no hit; one drain of [SCAN, GET] ledgers one hit.
func TestSnapshotScanLeadingOnly(t *testing.T) {
	s, addr := startBinaryServer(t, serve.Config{Keys: 64, Workers: 1})
	bc := dialBinary(t, addr)
	defer bc.c.Close()
	get := &serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: 1, Ops: []serve.Op{{Kind: serve.OpGet, Key: 3}}}
	scan := &serve.ProtoRequest{Opcode: serve.OpcodeScan, ReqID: 2, Ops: []serve.Op{{Kind: serve.OpScan, Key: 2, Count: 2}}}
	twoFrameDrains := func(d *bench.ServeDump) (n uint64) {
		for _, b := range d.Pipeline {
			if b.Depth == 2 {
				n = b.Drains
			}
		}
		return n
	}
	snapScan := func(d *bench.ServeDump) bench.ServeSnapScan {
		if d.SnapScan == nil {
			return bench.ServeSnapScan{}
		}
		return *d.SnapScan
	}
	for _, c := range []struct {
		name           string
		first, second  *serve.ProtoRequest
		hits, fallback uint64
	}{
		{"get-then-scan", get, scan, 0, 1},
		{"scan-then-get", scan, get, 1, 0},
	} {
		// One write normally lands in one drain; retry the rare split.
		for attempt := 0; ; attempt++ {
			if attempt == 50 {
				t.Fatalf("%s: the two frames never shared a drain", c.name)
			}
			before := s.Snapshot()
			if _, err := bc.c.Write(appendWire(t, appendWire(t, nil, c.first), c.second)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if resp := bc.readResp(t); resp.Status != serve.StatusOK {
					t.Fatalf("%s: reply %d status %d", c.name, i, resp.Status)
				}
			}
			after := s.Snapshot()
			if twoFrameDrains(after) != twoFrameDrains(before)+1 {
				continue
			}
			b, a := snapScan(before), snapScan(after)
			if a.Attempts-b.Attempts != 1 || a.Hits-b.Hits != c.hits || a.Fallbacks-b.Fallbacks != c.fallback {
				t.Fatalf("%s: snapscan moved %+v → %+v, want 1 attempt, %d hit, %d fallback",
					c.name, b, a, c.hits, c.fallback)
			}
			break
		}
	}
}

// TestSnapshotScanIneligible: multi-op and writing requests must stay on
// the transactional path — a read-only multi-op request needs one
// consistent cut across all its ops, which per-op snapshots cannot give.
func TestSnapshotScanIneligible(t *testing.T) {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do("c", serve.EpTxn, []serve.Op{
		{Kind: serve.OpScan, Key: 0, Count: 4},
		{Kind: serve.OpScan, Key: 8, Count: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("c", serve.EpTxn, []serve.Op{
		{Kind: serve.OpPut, Key: 0, Val: 1},
		{Kind: serve.OpScan, Key: 0, Count: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if d := s.Snapshot(); d.SnapScan != nil {
		t.Fatalf("ineligible requests reached the snapshot path: %+v", d.SnapScan)
	}
}

// TestSnapshotScanDisabled: SnapScanAttempts < 0 turns the fast path off;
// scans still work, the ledger stays empty.
func TestSnapshotScanDisabled(t *testing.T) {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 1, SnapScanAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do("c", serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: 2, Val: 5}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Do("c", serve.EpScan, []serve.Op{{Kind: serve.OpScan, Key: 0, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Vals) != 4 || res[0].Vals[2] != 5 {
		t.Fatalf("scan with fast path disabled returned %+v", res)
	}
	if d := s.Snapshot(); d.SnapScan != nil {
		t.Fatalf("disabled fast path still ledgered: %+v", d.SnapScan)
	}
}
