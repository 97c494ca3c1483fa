package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/serve"
)

// TestScanAtomicity: a single-scan request reads its range in one
// transaction. A writer keeps two adjacent keys summing to a constant via
// TXN; every scan covering the pair must agree — a torn read is
// unambiguous.
func TestScanAtomicity(t *testing.T) {
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
	defer func() {
		stop.Store(true)
		wg.Wait()
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
	// The vestigial snapscan block reports every SCAN as a fallback: none
	// was answered outside a transaction.
	if sc := s.Snapshot().SnapScan; sc == nil || sc.Attempts != scans || sc.Hits != 0 || sc.Fallbacks != scans {
		t.Fatalf("snapscan %+v, want %d attempts, 0 hits, %d fallbacks", sc, scans, scans)
	}
}

// TestPipelinedScanProgramOrder: a connection's requests take effect in the
// order it sent them, scans included, even when one drain fuses them into
// one transaction. In a drain of [PUT k, SCAN k..k+2, PUT k, SCAN k..k+2]
// each scan reads the PUT just before it; in a drain of [SCAN, PUT] the scan
// reads the value from before the PUT.
func TestPipelinedScanProgramOrder(t *testing.T) {
	const k = 2
	s, addr := startBinaryServer(t, serve.Config{Keys: 64, Workers: 1})
	bc := dialBinary(t, addr)
	defer bc.c.Close()
	drains := func() (n uint64) {
		for _, b := range s.Snapshot().Pipeline {
			n += b.Drains
		}
		return n
	}
	put := func(id, v uint64) *serve.ProtoRequest {
		return &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: id, Ops: []serve.Op{{Kind: serve.OpPut, Key: k, Val: v}}}
	}
	scan := func(id uint64) *serve.ProtoRequest {
		return &serve.ProtoRequest{Opcode: serve.OpcodeScan, ReqID: id, Ops: []serve.Op{{Kind: serve.OpScan, Key: k, Count: 2}}}
	}
	// send writes the frames in one Write and checks every reply: a scan must
	// read wantScan[i] at key k and 0 at k+1, whether or not the frames
	// shared a drain. It reports whether they did.
	send := func(frames []*serve.ProtoRequest, wantScan map[uint64]uint64) bool {
		t.Helper()
		before := drains()
		var wire []byte
		for _, f := range frames {
			wire = appendWire(t, wire, f)
		}
		if _, err := bc.c.Write(wire); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			resp := bc.readResp(t)
			if resp.ReqID != f.ReqID || resp.Status != serve.StatusOK {
				t.Fatalf("reply to %d: reqID %d status %d", f.ReqID, resp.ReqID, resp.Status)
			}
			want, isScan := wantScan[f.ReqID]
			if !isScan {
				continue
			}
			if len(resp.Results) != 1 || len(resp.Results[0].Vals) != 2 {
				t.Fatalf("scan %d results %+v", f.ReqID, resp.Results)
			}
			if v := resp.Results[0].Vals; v[0] != want || v[1] != 0 {
				t.Fatalf("scan %d read %v, want [%d 0]: it does not sit where its connection sent it", f.ReqID, v, want)
			}
		}
		return drains() == before+1
	}
	oneDrain := func(name string, frames func(round uint64) ([]*serve.ProtoRequest, map[uint64]uint64)) {
		t.Helper()
		// One write normally lands in one drain; retry the rare split.
		for round := uint64(1); ; round++ {
			if round > 50 {
				t.Fatalf("%s: the frames never shared a drain", name)
			}
			if send(frames(round)) {
				return
			}
		}
	}
	last := uint64(0) // the value key k holds between rounds
	oneDrain("put-scan-put-scan", func(round uint64) ([]*serve.ProtoRequest, map[uint64]uint64) {
		v1, v2 := 10*round+1, 10*round+2
		last = v2
		return []*serve.ProtoRequest{put(1, v1), scan(2), put(3, v2), scan(4)},
			map[uint64]uint64{2: v1, 4: v2}
	})
	oneDrain("scan-put", func(round uint64) ([]*serve.ProtoRequest, map[uint64]uint64) {
		old := last
		last = 1000 + round
		return []*serve.ProtoRequest{scan(5), put(6, last)}, map[uint64]uint64{5: old}
	})
}
