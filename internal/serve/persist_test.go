package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/serve"
)

// TestPersistCloseRecover: Close fsyncs and closes the redo log after the
// workers drain, so a clean Close-then-reopen loses nothing — even without
// durable acks — whichever driver committed the writes: a hybrid whose
// commits are mostly hardware, a pure-software one, the global lock.
func TestPersistCloseRecover(t *testing.T) {
	for _, algo := range []string{"rh-norec", "hy-norec", "tl2", "norec-lazy", "serial"} {
		t.Run(algo, func(t *testing.T) { persistCloseRecover(t, algo) })
	}
}

func persistCloseRecover(t *testing.T, algo string) {
	dir := t.TempDir()
	s, err := serve.New(serve.Config{Algo: algo, Keys: 64, Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for k := uint64(0); k < 8; k++ {
		if _, err := s.Do("c", serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: k, Val: 100 + k}}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	// Overwrite one key so recovery must replay in order.
	if _, err := s.Do("c", serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: 3, Val: 999}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := serve.New(serve.Config{Algo: algo, Keys: 64, Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	stats, on := s2.Recovery()
	if !on || stats.Seq == 0 {
		t.Fatalf("recovery stats %+v persisting=%v, want replayed commits", stats, on)
	}
	for k := uint64(0); k < 8; k++ {
		want := 100 + k
		if k == 3 {
			want = 999
		}
		res, err := s2.Do("c", serve.EpGet, []serve.Op{{Kind: serve.OpGet, Key: k}})
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if res[0].Val != want {
			t.Fatalf("key %d = %d after recovery, want %d", k, res[0].Val, want)
		}
	}
}

// TestPersistMetricsDump: the rhserve.v1 dump grows a persist block that
// validates, and DurableAcks holds replies until the fsync frontier catches
// the append frontier.
func TestPersistMetricsDump(t *testing.T) {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 2, DataDir: t.TempDir(), DurableAcks: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for k := uint64(0); k < 4; k++ {
		if _, err := s.Do("c", serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: k, Val: k}}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	d := s.Snapshot()
	if d.Persist == nil {
		t.Fatalf("dump has no persist block")
	}
	if d.Persist.LogAppends < 4 || d.Persist.Appended < 4 {
		t.Fatalf("persist ledger %+v, want >= 4 appends", d.Persist)
	}
	if d.Persist.Durable != d.Persist.Appended {
		t.Fatalf("durable acks on but durable=%d < appended=%d", d.Persist.Durable, d.Persist.Appended)
	}
	b, _ := json.Marshal(d)
	if err := bench.ValidateDump(bytes.TrimSpace(b)); err != nil {
		t.Fatalf("dump with persist block invalid: %v\n%s", err, b)
	}
}

// TestDurableAcksShareFsync: a chain waits for its durable ack after it
// has released its worker, so N concurrent durable Do calls on one worker
// share group-fsync passes instead of paying one each under the lock. The
// hook holds every chain between its commit and its wait until all N have
// committed; were the wait still under the lock, the second chain could not
// commit, the hook would time out, and each Do would fsync alone.
func TestDurableAcksShareFsync(t *testing.T) {
	const n = 8
	s, err := serve.New(serve.Config{Keys: 64, Workers: 1, DataDir: t.TempDir(), DurableAcks: true, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	var arrived atomic.Int32
	all := make(chan struct{})
	prev := serve.SetTestDurableWait(func() {
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(500 * time.Millisecond):
		}
	})
	defer serve.SetTestDurableWait(prev)

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			_, err := s.Do(fmt.Sprint("c", k), serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: k, Val: k + 1}})
			errs <- err
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("durable put: %v", err)
		}
	}
	p := s.Snapshot().Persist
	if p == nil || p.Appended != n || p.Durable != n {
		t.Fatalf("persist ledger %+v, want %d appended and durable", p, n)
	}
	if p.FsyncGroups >= n {
		t.Fatalf("%d concurrent durable puts on one worker took %d fsync groups, want fewer", n, p.FsyncGroups)
	}
	eps := s.Snapshot().Endpoints
	if len(eps) != 1 || eps[0].Requests != n || eps[0].Errors != 0 || eps[0].Latency.Count != n {
		t.Fatalf("endpoint ledger %+v, want %d requests, 0 errors, %d latencies", eps, n, n)
	}
}

// binDo sends one binary-protocol request and returns the parsed response.
func binDo(t *testing.T, bw *bufio.Writer, br *bufio.Reader, req *serve.ProtoRequest) *serve.ProtoResponse {
	t.Helper()
	payload, err := serve.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	if err := serve.WriteFrame(bw, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	frame, err := serve.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	resp, err := serve.ParseResponse(frame)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	return resp
}

// TestDurableOpcode: OpcodeDurable toggles per-connection durable acks; a
// put after the toggle advances the fsync frontier before the reply.
func TestDurableOpcode(t *testing.T) {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	bw, br := bufio.NewWriter(c), bufio.NewReader(c)
	if _, err := bw.WriteString(serve.ProtoMagic); err != nil {
		t.Fatal(err)
	}

	resp := binDo(t, bw, br, &serve.ProtoRequest{Opcode: serve.OpcodeDurable, ReqID: 1, Durable: true})
	if resp.Status != serve.StatusOK || resp.ReqID != 1 {
		t.Fatalf("durable toggle: %+v", resp)
	}
	resp = binDo(t, bw, br, &serve.ProtoRequest{
		Opcode: serve.OpcodePut, ReqID: 2,
		Ops: []serve.Op{{Kind: serve.OpPut, Key: 5, Val: 77}},
	})
	if resp.Status != serve.StatusOK {
		t.Fatalf("durable put: %+v", resp)
	}
	d := s.Snapshot()
	if d.Persist == nil || d.Persist.Durable < 1 {
		t.Fatalf("durable put acked before fsync: %+v", d.Persist)
	}
	if d.Persist.Durable != d.Persist.Appended {
		t.Fatalf("durable=%d < appended=%d after durable-acked put", d.Persist.Durable, d.Persist.Appended)
	}

	// Toggle off: the reply no longer waits, but the bad-body guard holds.
	resp = binDo(t, bw, br, &serve.ProtoRequest{Opcode: serve.OpcodeDurable, ReqID: 3, Durable: false})
	if resp.Status != serve.StatusOK {
		t.Fatalf("durable off: %+v", resp)
	}
}
