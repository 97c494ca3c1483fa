package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/serve"
	"rhnorec/internal/tm"
)

// newTestServer boots a Server plus an httptest front end over its Handler.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

// bgPost fires a request from a helper goroutine (no testing.T calls off
// the test goroutine).
func bgPost(url string) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func decodeResults(t *testing.T, body string) []serve.TxnResult {
	t.Helper()
	var out serve.TxnResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad response body %q: %v", body, err)
	}
	return out.Results
}

func TestPutGetScan(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Keys: 128, Workers: 2})
	if code, body := post(t, ts.URL+"/put?key=7&val=42", ""); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	code, body := get(t, ts.URL+"/get?key=7&key=8")
	if code != 200 {
		t.Fatalf("get: %d %s", code, body)
	}
	res := decodeResults(t, body)
	if len(res) != 2 || res[0].Val != 42 || res[1].Val != 0 {
		t.Fatalf("get results = %+v, want [42 0]", res)
	}
	code, body = get(t, ts.URL+"/scan?start=6&count=3")
	if code != 200 {
		t.Fatalf("scan: %d %s", code, body)
	}
	res = decodeResults(t, body)
	if len(res) != 1 || len(res[0].Vals) != 3 || res[0].Vals[1] != 42 {
		t.Fatalf("scan results = %+v, want middle value 42", res)
	}
	// A GET served after the SCAN carries no "vals" key.
	if code, body = get(t, ts.URL+"/get?key=7"); code != 200 || body != `{"results":[{"val":42}]}`+"\n" {
		t.Fatalf("get after scan: %d %q, want only the value", code, body)
	}
}

// TestArenaHoldsEveryDriver: the arena serve.New sizes, one line per key
// plus fixed slack, holds the key range and every driver's metadata,
// whatever the worker count: each driver boots with 1, 4 and 16 workers and
// stores to its first and last key. The key counts are the service's
// default 1 << 16 (a range carved exactly) and two whose range is
// class-rounded: 257 keys up by half, to 3 072 words, and 512 keys to the
// largest class, whose refill carves two 4 096-word blocks.
func TestArenaHoldsEveryDriver(t *testing.T) {
	for _, keys := range []uint64{257, 512, 1 << 16} {
		for _, algo := range bench.AllAlgos() {
			for _, workers := range []int{1, 4, 16} {
				s, err := serve.New(serve.Config{Algo: algo.Name, Keys: int(keys), Workers: workers})
				if err != nil {
					t.Fatalf("%s, %d keys, %d workers: New: %v", algo.Name, keys, workers, err)
				}
				for _, k := range []uint64{0, keys - 1} {
					if _, err := s.Do("c", serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: k, Val: k + 7}}); err != nil {
						t.Fatalf("%s, %d keys, %d workers: put %d: %v", algo.Name, keys, workers, k, err)
					}
					res, err := s.Do("c", serve.EpGet, []serve.Op{{Kind: serve.OpGet, Key: k}})
					if err != nil || res[0].Val != k+7 {
						t.Fatalf("%s, %d keys, %d workers: get %d = %+v, %v; want %d", algo.Name, keys, workers, k, res, err, k+7)
					}
				}
				s.Close()
			}
		}
	}
}

func TestCasSemantics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Keys: 128, Workers: 2})
	post(t, ts.URL+"/put?key=3&val=10", "")

	// Matching old value: swaps, reports the observed (old) value.
	code, body := post(t, ts.URL+"/cas?key=3&old=10&new=11", "")
	if code != 200 {
		t.Fatalf("cas: %d %s", code, body)
	}
	res := decodeResults(t, body)
	if !res[0].Swapped || res[0].Val != 10 {
		t.Fatalf("successful cas = %+v, want swapped with val 10", res[0])
	}

	// Stale old value: no swap, reports the current value.
	code, body = post(t, ts.URL+"/cas?key=3&old=10&new=99", "")
	if code != 200 {
		t.Fatalf("cas: %d %s", code, body)
	}
	res = decodeResults(t, body)
	if res[0].Swapped || res[0].Val != 11 {
		t.Fatalf("failed cas = %+v, want unswapped with val 11", res[0])
	}
	code, body = get(t, ts.URL+"/get?key=3")
	if res = decodeResults(t, body); code != 200 || res[0].Val != 11 {
		t.Fatalf("after failed cas key=3 is %+v, want 11", res)
	}
}

// TestTxnAtomicityUnderConcurrentReaders is the endpoint-level opacity
// check: writers move value between two keys inside /txn transactions while
// readers watch both keys through multi-key /get; every read must see the
// moved total conserved.
func TestTxnAtomicityUnderConcurrentReaders(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Keys: 16, Workers: 4, BatchMax: 4})
	post(t, ts.URL+"/put?key=0&val=1000", "")
	post(t, ts.URL+"/put?key=1&val=1000", "")

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		badReads atomic.Int64
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := ts.Client()
			for i := 1; !stop.Load(); i++ {
				d := i % 97
				body := fmt.Sprintf(
					`{"ops":[{"op":"get","key":0},{"op":"get","key":1},{"op":"put","key":0,"val":%d},{"op":"put","key":1,"val":%d}]}`,
					1000-d, 1000+d)
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/txn", strings.NewReader(body))
				req.Header.Set("X-RH-Client", fmt.Sprintf("writer-%d", w))
				resp, err := cl.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl := ts.Client()
			for !stop.Load() {
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/get?key=0&key=1", nil)
				req.Header.Set("X-RH-Client", fmt.Sprintf("reader-%d", r))
				resp, err := cl.Do(req)
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					continue
				}
				var out serve.TxnResponse
				if json.Unmarshal(body, &out) != nil || len(out.Results) != 2 {
					badReads.Add(1)
					continue
				}
				if sum := out.Results[0].Val + out.Results[1].Val; sum != 2000 {
					badReads.Add(1)
				}
			}
		}(r)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := badReads.Load(); n != 0 {
		t.Fatalf("%d reads observed a torn transfer (atomicity violation)", n)
	}
}

// stallFirstChain makes the next chain to take a worker stall there, after
// taking it and before batching, until the returned release runs (at most
// once, and at the latest when the test ends). entered closes once the
// chain holds the worker. Call it after the server's cleanup is registered,
// so that cleanup — which waits out the stalled chain — runs after this one.
func stallFirstChain(t *testing.T) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var once sync.Once
	prev := serve.SetTestBatchDelay(func() {
		once.Do(func() {
			close(in)
			<-out
		})
	})
	release = sync.OnceFunc(func() { close(out) })
	t.Cleanup(func() {
		release()
		serve.SetTestBatchDelay(prev)
	})
	return in, release
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShed429 stalls the one worker's lock holder, blocks one
// request behind it so the depth-1 backlog is full, and expects the next
// request to bounce with 429 + Retry-After. Every request shares one
// source IP, so one sticky worker.
func TestAdmissionShed429(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{
		Keys: 16, Workers: 1, QueueDepth: 1,
		RequestTimeout: time.Minute, RetryAfter: 3 * time.Second,
	})
	entered, release := stallFirstChain(t)

	go bgPost(ts.URL + "/put?key=1&val=1")
	<-entered
	go bgPost(ts.URL + "/put?key=2&val=2")
	waitFor(t, "a request blocked behind the stalled chain", func() bool { return s.Waiting("any") == 1 })

	resp, err := http.Post(ts.URL+"/put?key=3&val=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past a full backlog got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	release()
	if d := s.Snapshot(); d.Admission.QueueShed != 1 || d.Admission.DeadlineShed != 0 {
		t.Fatalf("admission = %+v, want exactly one queue shed", d.Admission)
	}
}

// TestDeadlineShed blocks a request behind a stalled lock holder with a
// tiny RequestTimeout: by the time it takes the worker its deadline has
// passed, so it is shed (the lock-acquisition tier of the admission
// controller).
func TestDeadlineShed(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{
		Keys: 16, Workers: 1, QueueDepth: 4,
		RequestTimeout: 20 * time.Millisecond,
	})
	entered, release := stallFirstChain(t)

	go bgPost(ts.URL + "/put?key=1&val=1")
	<-entered

	resCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/put?key=2&val=2", "", nil)
		if err != nil {
			resCh <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resCh <- resp.StatusCode
	}()
	waitFor(t, "a request blocked behind the stalled chain", func() bool { return s.Waiting("any") == 1 })
	time.Sleep(60 * time.Millisecond) // let the blocked request's deadline lapse
	release()
	if code := <-resCh; code != http.StatusTooManyRequests {
		t.Fatalf("deadline-expired request got %d, want 429", code)
	}
	d := s.Snapshot()
	if d.Admission.DeadlineShed == 0 {
		t.Fatalf("admission.deadline_shed = 0, want > 0 (dump: %+v)", d.Admission)
	}
	var shed uint64
	for _, ep := range d.Endpoints {
		shed += ep.Shed
	}
	if d.Admission.DeadlineShed != shed {
		t.Fatalf("admission.deadline_shed = %d, want the endpoints' shed sum %d", d.Admission.DeadlineShed, shed)
	}
}

// TestCloseAnswersBlockedChains: Close while chains are blocked behind a
// stalled lock holder. The stalled chain completes; every blocked caller —
// three binary sessions and one Do — gets ErrClosed or a cut connection,
// never a hang; a Do arriving at the full backlog after Close began gets
// ErrClosed, not ErrShed; Close returns; and no goroutine is left running.
func TestCloseAnswersBlockedChains(t *testing.T) {
	const sessions = 3
	before := runtime.NumGoroutine()
	s, err := serve.New(serve.Config{Keys: 16, Workers: 1, QueueDepth: sessions + 1, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // a failed test still shuts down; Close is idempotent
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := stallFirstChain(t)
	put := []serve.Op{{Kind: serve.OpPut, Key: 1, Val: 1}}

	stalled := make(chan error, 1)
	go func() {
		_, err := s.Do("stalled", serve.EpPut, put)
		stalled <- err
	}()
	<-entered

	// Each session's reader reports when its reply or its cut arrives;
	// anything but ErrClosed or a cut is an error.
	cut := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		bc := dialBinary(t, addr.String())
		defer bc.c.Close()
		if _, err := bc.c.Write(appendWire(t, nil, &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: 7, Ops: put})); err != nil {
			t.Fatal(err)
		}
		go func() {
			frame, err := serve.ReadFrame(bc.br, nil)
			if err != nil {
				cut <- nil
				return
			}
			resp, err := serve.ParseResponse(frame)
			if err == nil && (resp.Status != serve.StatusError || resp.Msg != serve.ErrClosed.Error()) {
				err = fmt.Errorf("blocked session answered status %d %q, want ErrClosed or a cut", resp.Status, resp.Msg)
			}
			cut <- err
		}()
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Do("blocked", serve.EpPut, put)
		blocked <- err
	}()
	waitFor(t, "every caller blocked on the worker", func() bool { return s.Waiting("any") == sessions+1 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close cuts the connections before it takes the worker: once every
	// session has seen its cut, the server has stopped and the blocked
	// chains can only answer ErrClosed.
	for i := 0; i < sessions; i++ {
		if err := <-cut; err != nil {
			t.Error(err)
		}
	}
	// The backlog is at QueueDepth, but a stopped server answers ErrClosed,
	// not a retry-later shed.
	if _, err := s.Do("late", serve.EpPut, put); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Do after Close began returned %v, want ErrClosed", err)
	}
	release()
	select {
	case err := <-stalled:
		if err != nil {
			t.Errorf("stalled Do returned %v, want it to complete", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled Do hung through Close")
	}
	select {
	case err := <-blocked:
		if !errors.Is(err, serve.ErrClosed) {
			t.Errorf("blocked Do returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Do hung through Close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Keys: 64, Workers: 1})
	cases := []struct {
		method, path string
	}{
		{"POST", "/put?key=64&val=1"},        // key out of range
		{"POST", "/put?key=1"},               // missing val
		{"GET", "/get"},                      // missing key
		{"GET", "/scan?start=60&count=10"},   // range past end
		{"GET", "/scan?start=0&count=0"},     // zero count
		{"GET", "/scan?start=0&count=99999"}, // over scan limit
		{"POST", "/txn"},                     // empty body
	}
	for _, c := range cases {
		var code int
		if c.method == "GET" {
			code, _ = get(t, ts.URL+c.path)
		} else {
			code, _ = post(t, ts.URL+c.path, "")
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.method, c.path, code)
		}
	}
	if code, _ := post(t, ts.URL+"/txn", `{"ops":[{"op":"frob","key":1}]}`); code != 400 {
		t.Errorf("unknown op: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/put?key=1&val=1"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /put: status %d, want 405", code)
	}
}

// TestMetricsDump drives traffic over several endpoints, then checks that
// the JSON form of /metrics passes the rhserve.v1 schema validator, labels
// every driven endpoint, and counts the traffic.
func TestMetricsDump(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Keys: 128, Workers: 2})
	post(t, ts.URL+"/put?key=1&val=5", "")
	get(t, ts.URL+"/get?key=1")
	post(t, ts.URL+"/cas?key=1&old=5&new=6", "")
	get(t, ts.URL+"/scan?start=0&count=8")
	post(t, ts.URL+"/txn", `{"ops":[{"op":"get","key":1},{"op":"put","key":2,"val":9}]}`)

	code, body := get(t, ts.URL+"/metrics?format=json")
	if code != 200 {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if err := bench.ValidateDump([]byte(body)); err != nil {
		t.Fatalf("rhserve.v1 dump invalid: %v\n%s", err, body)
	}
	d, err := bench.ParseServeDump([]byte(body))
	if err != nil {
		t.Fatalf("ParseServeDump: %v", err)
	}
	want := map[string]bool{"get": true, "put": true, "cas": true, "scan": true, "txn": true}
	for _, ep := range d.Endpoints {
		delete(want, ep.Endpoint)
		if ep.Requests == 0 || ep.Latency.Count == 0 {
			t.Errorf("endpoint %s: empty ledger %+v", ep.Endpoint, ep)
		}
	}
	if len(want) != 0 {
		t.Errorf("endpoints missing from dump: %v", want)
	}
	if d.TM.Commits == 0 {
		t.Errorf("tm.commits = 0, want > 0")
	}

	// The text form renders the same data.
	code, text := get(t, ts.URL+"/metrics")
	if code != 200 || !strings.Contains(text, "endpoint") || !strings.Contains(text, "admission:") {
		t.Errorf("text metrics missing expected sections:\n%s", text)
	}
}

// TestSnapshotAfterClose verifies Close stores final worker snapshots so
// late metrics reads still see the full ledger.
func TestSnapshotAfterClose(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Keys: 16, Workers: 2})
	post(t, ts.URL+"/put?key=1&val=1", "")
	s.Close()
	d := s.Snapshot()
	var total uint64
	for _, ep := range d.Endpoints {
		total += ep.Requests
	}
	if total == 0 {
		t.Fatalf("post-Close snapshot lost the request ledger: %+v", d.Endpoints)
	}
	b, _ := json.Marshal(d)
	if err := bench.ValidateDump(bytes.TrimSpace(b)); err != nil {
		t.Fatalf("post-Close dump invalid: %v", err)
	}
}

// TestFusedBatchLedger sends three PUTs as one pipelined drain — one chain,
// fused into one transaction — and checks the endpoint ledger counts at
// least two fused requests: a fused batch holds two or more.
func TestFusedBatchLedger(t *testing.T) {
	s, addr := startBinaryServer(t, serve.Config{Keys: 16, Workers: 1})
	bc := dialBinary(t, addr)
	defer bc.c.Close()
	fused := func() (n uint64) {
		for _, ep := range s.Snapshot().Endpoints {
			n += ep.Fused
		}
		return n
	}
	// One write normally lands in one drain; a scheduler wakeup between
	// partial deliveries can split it, so retry before calling it unfused.
	for attempt := 0; attempt < 50 && fused() == 0; attempt++ {
		var wire []byte
		for k := uint64(1); k <= 3; k++ {
			wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: k,
				Ops: []serve.Op{{Kind: serve.OpPut, Key: k, Val: k}}})
		}
		if _, err := bc.c.Write(wire); err != nil {
			t.Fatalf("write: %v", err)
		}
		for k := uint64(1); k <= 3; k++ {
			if resp := bc.readResp(t); resp.ReqID != k || resp.Status != serve.StatusOK {
				t.Fatalf("reply %d: reqID %d status %d", k, resp.ReqID, resp.Status)
			}
		}
	}
	if n := fused(); n < 2 {
		t.Fatalf("fused requests = %d, want >= 2 (one pipelined drain fused)", n)
	}
}

// TestNewBootsEveryAlgoAtTinyKeys: the arena is sized from the key count
// plus whatever metadata table the selected driver keeps in it, so every
// registered algorithm boots — and serves — at a key space far smaller than
// rh-tl2's 16 Ki-word stripe table (which used to exhaust the arena in New).
func TestNewBootsEveryAlgoAtTinyKeys(t *testing.T) {
	for _, algo := range bench.AllAlgos() {
		t.Run(algo.Name, func(t *testing.T) {
			s, err := serve.New(serve.Config{Algo: algo.Name, Keys: 64, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Do("c", serve.EpPut, []serve.Op{{Kind: serve.OpPut, Key: 63, Val: 7}}); err != nil {
				t.Fatal(err)
			}
			res, err := s.Do("c", serve.EpGet, []serve.Op{{Kind: serve.OpGet, Key: 63}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].Val != 7 {
				t.Fatalf("GET after PUT 7 = %+v", res)
			}
		})
	}
}

// TestShedReadsEveryFastPathEngine: the saturation shed reads the slow-path
// occupancy of every driver with a hardware fast path, and has no engine to
// read for a driver without one. Whether a driver has a fast path is read
// off the driver itself: a lone one-word write commits there.
func TestShedReadsEveryFastPathEngine(t *testing.T) {
	for _, algo := range bench.AllAlgos() {
		t.Run(algo.Name, func(t *testing.T) {
			m := mem.New(1 << 16)
			dev := htm.NewDevice(m, htm.Config{})
			dev.SetActiveThreads(1)
			th := algo.New(m, dev).NewThread()
			defer th.Close()
			if err := th.Run(func(tx tm.Tx) error {
				tx.Store(tx.Alloc(1), 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			fast := th.Stats().FastPathCommits == 1
			s, err := serve.New(serve.Config{Algo: algo.Name, Keys: 64, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Engine() != nil; got != fast {
				t.Errorf("server reads an engine: %v; driver has a fast path: %v", got, fast)
			}
		})
	}
}
