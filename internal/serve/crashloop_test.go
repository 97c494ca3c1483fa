package serve_test

// The real-process crash-recovery loop: build cmd/rhserve, then repeatedly
// run it with -data and -durable, drive durable-acked multi-key transactions
// at it over the binary protocol, kill -9 mid-traffic, restart on the same
// directory, and audit the recovered state. The oracle is the explored crash
// plane's (internal/explore): per-client key pairs whose sum is invariant
// under every transfer (an atomic-prefix replay preserves it), plus a
// per-client stamp key written in the same transaction — after a crash the
// recovered stamp must be at least the last durable-acked one (no lost
// durable-acked commit) and the pair sum must be exact (no torn replay).
//
// Gated behind RHNOREC_CRASHLOOP=1: it execs go build and burns real
// wall-clock on process churn, which is CI's crash-recovery job's budget,
// not the unit suite's.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rhnorec/internal/serve"
)

const (
	crashClients   = 4
	crashPairTotal = 1_000_000
)

// crashServer is one rhserve process under test.
type crashServer struct {
	cmd  *exec.Cmd
	addr string
}

func startCrashServer(t *testing.T, bin, algo, dataDir string) *crashServer {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-algo", algo,
		"-data", dataDir,
		"-durable",
		"-keys", "64",
		"-workers", "4",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start rhserve: %v", err)
	}
	// The boot banner carries the bound address (port 0 picks one).
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, " on 127.0.0.1:"); i >= 0 {
			addr = strings.Fields(line[i+len(" on "):])[0]
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("rhserve never printed its bound address")
	}
	// Keep draining stdout so the process never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return &crashServer{cmd: cmd, addr: addr}
}

func (cs *crashServer) kill() {
	cs.cmd.Process.Kill() // SIGKILL: no shutdown path runs
	cs.cmd.Wait()
}

// crashClient is one binary-protocol connection doing durable-acked
// transfers on its own key pair.
type crashClient struct {
	id    int
	conn  net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	reqID uint64
	// acked is the last transfer stamp the server durable-acked; survival
	// floor for the recovered stamp key.
	acked uint64
}

// keys: client i owns pair (3i, 3i+1) and stamp 3i+2.
func (c *crashClient) keyA() uint64     { return uint64(3 * c.id) }
func (c *crashClient) keyB() uint64     { return uint64(3*c.id + 1) }
func (c *crashClient) keyStamp() uint64 { return uint64(3*c.id + 2) }

func dialCrashClient(t *testing.T, addr string, id int, acked uint64) (*crashClient, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &crashClient{id: id, conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn), acked: acked}
	if _, err := c.bw.WriteString(serve.ProtoMagic); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := c.do(&serve.ProtoRequest{Opcode: serve.OpcodeHello, Hello: fmt.Sprintf("crash-%d", id)}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// do sends one frame and reads its reply (the process dying mid-exchange
// surfaces as an error, which the caller treats as "crash happened").
func (c *crashClient) do(req *serve.ProtoRequest) (*serve.ProtoResponse, error) {
	c.reqID++
	req.ReqID = c.reqID
	payload, err := serve.AppendRequest(nil, req)
	if err != nil {
		return nil, err
	}
	if err := serve.WriteFrame(c.bw, payload); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := serve.ReadFrame(c.br, nil)
	if err != nil {
		return nil, err
	}
	return serve.ParseResponse(frame)
}

// transfer runs one durable-acked atomic transfer: repartition the pair and
// bump the stamp in ONE transaction. stamp n acked durably => this exact
// partition is recoverable.
func (c *crashClient) transfer(n uint64) error {
	x := (n * 7919) % crashPairTotal // deterministic walk over partitions
	resp, err := c.do(&serve.ProtoRequest{
		Opcode: serve.OpcodeTxn,
		Ops: []serve.Op{
			{Kind: serve.OpPut, Key: c.keyA(), Val: x},
			{Kind: serve.OpPut, Key: c.keyB(), Val: crashPairTotal - x},
			{Kind: serve.OpPut, Key: c.keyStamp(), Val: n},
		},
	})
	if err != nil {
		return err
	}
	switch resp.Status {
	case serve.StatusOK:
		c.acked = n
		return nil
	case serve.StatusShed:
		return nil // backpressure, not failure; stamp not acked
	default:
		return fmt.Errorf("transfer: status %d %s", resp.Status, resp.Msg)
	}
}

// audit reads the recovered pair and stamp through a fresh server and checks
// the crash-consistency contract.
func (c *crashClient) audit(t *testing.T, addr string, iter int) {
	t.Helper()
	ac, err := dialCrashClient(t, addr, c.id, c.acked)
	if err != nil {
		t.Fatalf("iter %d: audit dial: %v", iter, err)
	}
	defer ac.conn.Close()
	resp, err := ac.do(&serve.ProtoRequest{
		Opcode: serve.OpcodeGet,
		Ops: []serve.Op{
			{Kind: serve.OpGet, Key: c.keyA()},
			{Kind: serve.OpGet, Key: c.keyB()},
			{Kind: serve.OpGet, Key: c.keyStamp()},
		},
	})
	if err != nil || resp.Status != serve.StatusOK {
		t.Fatalf("iter %d: audit get: %v (resp %+v)", iter, err, resp)
	}
	a, b, stamp := resp.Results[0].Val, resp.Results[1].Val, resp.Results[2].Val
	if stamp > 0 || c.acked > 0 {
		if a+b != crashPairTotal {
			t.Fatalf("iter %d client %d: conservation broken after crash: %d + %d != %d (stamp %d)",
				iter, c.id, a, b, crashPairTotal, stamp)
		}
	}
	if stamp < c.acked {
		t.Fatalf("iter %d client %d: durable-acked commit lost: recovered stamp %d < acked %d",
			iter, c.id, stamp, c.acked)
	}
	if stamp > 0 {
		// The recovered partition must be stamp's exact partition: replay
		// reached a transaction boundary, not a torn mix.
		want := (stamp * 7919) % crashPairTotal
		if a != want {
			t.Fatalf("iter %d client %d: recovered partition %d/%d does not match stamp %d (want a=%d)",
				iter, c.id, a, b, stamp, want)
		}
	}
}

// crashLoopAlgos: the paper's hybrid, the hybrid it is measured against, and
// a driver with no hardware path at all — every commit of the last reaches
// the log through the write log's seal, none through mem.CommitWrites.
var crashLoopAlgos = []string{"rh-norec", "hy-norec", "tl2"}

func TestCrashLoopKill9(t *testing.T) {
	if os.Getenv("RHNOREC_CRASHLOOP") == "" {
		t.Skip("set RHNOREC_CRASHLOOP=1 to run the kill -9 recovery loop (CI crash-recovery job)")
	}
	iters := 20
	if v := os.Getenv("RHNOREC_CRASHLOOP_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad RHNOREC_CRASHLOOP_ITERS=%q", v)
		}
		iters = n
	}
	bin := filepath.Join(t.TempDir(), "rhserve")
	if out, err := exec.Command("go", "build", "-o", bin, "rhnorec/cmd/rhserve").CombinedOutput(); err != nil {
		t.Fatalf("go build rhserve: %v\n%s", err, out)
	}
	for _, algo := range crashLoopAlgos {
		t.Run(algo, func(t *testing.T) { crashLoop(t, bin, algo, iters) })
	}
}

func crashLoop(t *testing.T, bin, algo string, iters int) {
	dataDir := filepath.Join(t.TempDir(), "data")

	// acked stamps survive across iterations (the clients reconnect).
	acked := make([]uint64, crashClients)
	stampBase := uint64(0)

	for iter := 0; iter < iters; iter++ {
		srv := startCrashServer(t, bin, algo, dataDir)

		// Audit last iteration's crash against this boot's recovered state.
		for id := 0; id < crashClients; id++ {
			(&crashClient{id: id, acked: acked[id]}).audit(t, srv.addr, iter)
		}

		// Drive durable transfers until the kill lands.
		type clientDone struct {
			id    int
			acked uint64
		}
		done := make(chan clientDone, crashClients)
		for id := 0; id < crashClients; id++ {
			go func(id int) {
				d := clientDone{id: id, acked: acked[id]}
				defer func() { done <- d }()
				c, err := dialCrashClient(t, srv.addr, id, acked[id])
				if err != nil {
					return // server already gone
				}
				defer c.conn.Close()
				for n := stampBase + 1; ; n++ {
					if err := c.transfer(n); err != nil {
						d.acked = c.acked
						return // crash observed mid-exchange
					}
					d.acked = c.acked
				}
			}(id)
		}
		// Vary the kill point so crashes land at different log phases.
		time.Sleep(time.Duration(20+iter*7) * time.Millisecond)
		srv.kill()
		for i := 0; i < crashClients; i++ {
			d := <-done
			acked[d.id] = d.acked
		}
		// Stamps strictly grow across iterations so a stale replay is
		// distinguishable from a fresh one.
		for _, a := range acked {
			if a > stampBase {
				stampBase = a
			}
		}
		stampBase += 1000
	}

	// One final boot: the last crash must recover too.
	srv := startCrashServer(t, bin, algo, dataDir)
	for id := 0; id < crashClients; id++ {
		(&crashClient{id: id, acked: acked[id]}).audit(t, srv.addr, iters)
	}
	srv.kill()
}
