// Command rhload is the closed/open-loop load generator for the rhserve KV
// service (docs/SERVE.md). It drives a sweep grid — target QPS × zipfian
// key skew × read mix — over either transport, reports achieved throughput
// and client-side latency per cell, and can emit the cells as an
// rhbench.v2 dump plus the server's own rhserve.v1 metrics dump.
//
// Usage:
//
//	rhload -addr 127.0.0.1:7421 -conns 8 -duration 5s
//	rhload -proto binary -qps 1000,5000,0 -zipf 0,0.99,1.2 -readmix 0.9
//	rhload -json cells.json -dump serve-dump.json -fail-on-errors
//
// Knobs: -addr server, -proto http|binary, -conns concurrent connections,
// -qps CSV of target rates (0 = closed loop: issue as fast as replies
// return), -duration per cell, -zipf CSV of skew exponents, -readmix CSV of
// GET fractions, -casfrac/-scanfrac/-txnfrac the other endpoint fractions
// (remainder PUT; each in [0, 1], the four summing to at most 1),
// -txnops/-scancount batch shapes, -keys key-space size,
// -seed deterministic generator seed, -pipeline CSV of in-flight depths per
// connection (binary only: N frames written through one flush, N replies
// read back — the wire shape the server coalesces into fused batches;
// depth-1 cells carry no depth in their name, deeper cells append /pN).
// Profiling: -cpuprofile/-memprofile write generator-side pprof profiles.
//
// Shed handling: a 429/StatusShed reply is not an error — the connection
// backs off the server's Retry-After hint and resumes; sheds are reported
// per cell. An error status the server answers counts one error per
// request. A transport failure (dial, write, read, decode) counts one
// error, records no latency and ends its connection for the rest of the
// cell, so a dead server costs a cell at most -conns errors.
//
// Output: -json FILE writes the cells as an rhbench.v2 dump (workload
// "serve/<proto>/z<skew>/r<readmix>/q<qps>", threads = conns, ops_per_sec =
// achieved goodput); -dump FILE fetches /metrics?format=json from the
// server, validates it against the rhserve.v1 schema, and writes it (the
// dump cmd/rhgate holds to its p99 and abort-rate bounds); -fail-on-errors
// exits 1 if any request failed transactionally. A flag value rhload
// cannot honour exits 2 before any request is sent.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/obs"
	"rhnorec/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7421", "rhserve address")
		proto     = flag.String("proto", "http", "transport: http or binary")
		conns     = flag.Int("conns", 4, "concurrent connections")
		qpsCSV    = flag.String("qps", "0", "CSV of target QPS per cell (0 = closed loop)")
		duration  = flag.Duration("duration", 3*time.Second, "duration per sweep cell")
		zipfCSV   = flag.String("zipf", "0.99", "CSV of zipfian skew exponents")
		mixCSV    = flag.String("readmix", "0.9", "CSV of GET fractions")
		casFrac   = flag.Float64("casfrac", 0.02, "CAS fraction")
		scanFrac  = flag.Float64("scanfrac", 0.02, "SCAN fraction")
		txnFrac   = flag.Float64("txnfrac", 0.05, "TXN fraction")
		txnOps    = flag.Int("txnops", 4, "ops per generated TXN")
		scanCount = flag.Int("scancount", 16, "keys per generated SCAN")
		keys      = flag.Int("keys", 1<<16, "key-space size (must be <= the server's -keys)")
		seed      = flag.Int64("seed", 1, "generator seed")
		pipeCSV   = flag.String("pipeline", "1", "CSV of pipeline depths per cell (binary only; N>1 keeps N requests in flight per connection)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the generator to FILE")
		memProf   = flag.String("memprofile", "", "write a post-run heap profile of the generator to FILE")
		jsonPath  = flag.String("json", "", "write cells as an rhbench.v2 dump to FILE")
		dumpPath  = flag.String("dump", "", "fetch, validate, and write the server's rhserve.v1 dump to FILE")
		failOnErr = flag.Bool("fail-on-errors", false, "exit non-zero if any request failed transactionally")
	)
	flag.Parse()
	if *proto != "http" && *proto != "binary" {
		usage("unknown -proto %q (want http or binary)", *proto)
	}
	if *conns < 1 {
		usage("-conns %d: want at least 1", *conns)
	}
	if *duration <= 0 {
		usage("-duration %s: want > 0", *duration)
	}

	qpsList := parseFloats(*qpsCSV, "-qps")
	zipfList := parseFloats(*zipfCSV, "-zipf")
	mixList := parseFloats(*mixCSV, "-readmix")
	pipeList := parseInts(*pipeCSV, "-pipeline")
	for _, p := range pipeList {
		if p > 1 && *proto != "binary" {
			usage("-pipeline %d requires -proto binary (HTTP has no frame pipelining)", p)
		}
	}
	mixes := make([]RequestMix, len(mixList))
	for i, readMix := range mixList {
		mixes[i] = RequestMix{
			GetFrac: readMix, CasFrac: *casFrac, ScanFrac: *scanFrac, TxnFrac: *txnFrac,
			TxnOps: *txnOps, ScanCount: *scanCount,
		}.WithDefaults()
		if err := mixes[i].Validate(); err != nil {
			usage("request mix -readmix %g: %v", readMix, err)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
	}

	rec := &bench.JSONRecorder{}
	var totalErrs uint64
	algo := fetchAlgo(*addr)
	fmt.Printf("rhload: %s via %s, algo=%s, %d conns, %s per cell\n",
		*addr, *proto, algo, *conns, *duration)
	fmt.Printf("%-30s %10s %10s %8s %8s %10s %10s %10s\n",
		"cell", "target", "achieved", "sheds", "errors", "p50", "p99", "p999")
	for _, skew := range zipfList {
		zipf := NewZipfKeys(*keys, skew)
		for _, mix := range mixes {
			for _, qps := range qpsList {
				for _, depth := range pipeList {
					cell := cellConfig{
						addr: *addr, proto: *proto, conns: *conns, qps: qps,
						duration: *duration, zipf: zipf, mix: mix, seed: *seed,
						pipeline: depth,
					}
					res := runCell(cell)
					totalErrs += res.errors
					name := fmt.Sprintf("serve/%s/z%.2f/r%.2f/q%g", *proto, skew, mix.GetFrac, qps)
					if depth > 1 {
						name += fmt.Sprintf("/p%d", depth)
					}
					fmt.Printf("%-30s %10s %10.0f %8d %8d %10s %10s %10s\n",
						name, targetStr(qps), res.achieved, res.sheds, res.errors,
						durStr(res.lat.Quantile(0.50)), durStr(res.lat.Quantile(0.99)), durStr(res.lat.Quantile(0.999)))
					rec.Record(bench.Result{
						Workload:   name,
						Algo:       algo,
						Threads:    *conns,
						Ops:        res.ops,
						Elapsed:    res.elapsed,
						Throughput: res.achieved,
					})
				}
			}
		}
	}

	if *jsonPath != "" {
		writeJSONFile(*jsonPath, rec)
	}
	if *dumpPath != "" {
		fetchServeDump(*addr, *dumpPath)
	}
	exit := 0
	if *failOnErr && totalErrs > 0 {
		fmt.Fprintf(os.Stderr, "rhload: %d transactional errors\n", totalErrs)
		exit = 1
	}
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
	}
	os.Exit(exit)
}

type cellConfig struct {
	addr     string
	proto    string
	conns    int
	qps      float64
	duration time.Duration
	zipf     *ZipfKeys
	mix      RequestMix
	seed     int64
	pipeline int // requests per round (binary; HTTP rounds hold one)
}

type cellResult struct {
	ops      uint64
	sheds    uint64
	errors   uint64
	elapsed  time.Duration
	achieved float64
	lat      obs.Histogram
}

// connStats is one connection goroutine's private tally, merged after join.
type connStats struct {
	ops    uint64
	sheds  uint64
	errors uint64
	lat    obs.Histogram
}

// runCell drives one sweep cell: conns goroutines against one server, each
// pacing itself at qps/conns (or flat-out when qps is 0).
func runCell(c cellConfig) cellResult {
	var wg sync.WaitGroup
	stats := make([]connStats, c.conns)
	start := time.Now()
	deadline := start.Add(c.duration)
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runConn(c, i, &stats[i], deadline)
		}(i)
	}
	wg.Wait()
	var res cellResult
	res.elapsed = time.Since(start)
	for i := range stats {
		res.ops += stats[i].ops
		res.sheds += stats[i].sheds
		res.errors += stats[i].errors
		res.lat.Merge(&stats[i].lat)
	}
	res.achieved = float64(res.ops) / res.elapsed.Seconds()
	return res
}

// runConn is one connection's generator loop. Each round generates
// c.pipeline requests (one over HTTP) and issues them through doBatch: on
// the binary protocol all frames go out through one flush and the replies
// are read in order — the wire pattern the server's drain loop coalesces
// into fused batches. Every answered request records its round's round trip
// as its latency (that IS how long each reply took end to end). Open loop:
// fire rounds at the round-scaled interval, skipping ticks that fall behind
// (no coordinated omission backlog — a late reply costs throughput, not a
// burst). Closed loop: next round as soon as the replies land. A transport
// failure (dial, write, read, decode) counts one error, records no latency
// and ends the connection.
func runConn(c cellConfig, id int, st *connStats, deadline time.Time) {
	identity := fmt.Sprintf("rhload-%d", id)
	var cl kvClient
	if c.proto == "binary" {
		bc, err := newBinClient(c.addr, identity)
		if err != nil {
			st.errors++
			return
		}
		cl = bc
	} else {
		cl = newHTTPClient(c.addr, identity)
	}
	defer cl.close()
	rng := rand.New(rand.NewSource(c.seed + int64(id)*7919))
	depth := c.pipeline
	kinds := make([]ReqKind, depth)
	opss := make([][]serve.Op, depth)
	out := make([]outcome, depth)
	var interval time.Duration
	if c.qps > 0 {
		interval = time.Duration(float64(c.conns*depth) / c.qps * float64(time.Second))
	}
	next := time.Now()
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if interval > 0 {
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(interval)
			if behind := time.Now(); next.Before(behind) {
				next = behind
			}
		}
		for i := range kinds {
			kinds[i], opss[i] = genRequest(c, rng)
		}
		t0 := time.Now()
		if err := cl.doBatch(kinds, opss, out); err != nil {
			st.errors++
			return
		}
		rtt := uint64(time.Since(t0))
		var backoff time.Duration
		for i := range out {
			st.lat.Record(rtt)
			switch {
			case out[i].err != nil:
				st.errors++
			case out[i].shed:
				st.sheds++
				backoff = max(backoff, out[i].retryAfter)
			default:
				st.ops++
			}
		}
		if backoff = min(backoff, time.Until(deadline)); backoff > 0 {
			time.Sleep(backoff)
		}
	}
}

// genRequest draws one request from the mix.
func genRequest(c cellConfig, rng *rand.Rand) (ReqKind, []serve.Op) {
	kind := c.mix.Pick(rng)
	key := func() uint64 { return c.zipf.ScrambledNext(rng) }
	switch kind {
	case ReqGet:
		return kind, []serve.Op{{Kind: serve.OpGet, Key: key()}}
	case ReqCas:
		return kind, []serve.Op{{Kind: serve.OpCas, Key: key(), Old: uint64(rng.Intn(4)), Val: rng.Uint64() >> 1}}
	case ReqScan:
		n := uint64(c.mix.ScanCount)
		start := key()
		if max := uint64(c.zipf.N()); n >= max {
			start, n = 0, max
		} else if start+n > max {
			start = max - n
		}
		return kind, []serve.Op{{Kind: serve.OpScan, Key: start, Count: uint32(n)}}
	case ReqTxn:
		ops := make([]serve.Op, c.mix.TxnOps)
		for i := range ops {
			if rng.Intn(2) == 0 {
				ops[i] = serve.Op{Kind: serve.OpGet, Key: key()}
			} else {
				ops[i] = serve.Op{Kind: serve.OpPut, Key: key(), Val: rng.Uint64() >> 1}
			}
		}
		return kind, ops
	default:
		return ReqPut, []serve.Op{{Kind: serve.OpPut, Key: key(), Val: rng.Uint64() >> 1}}
	}
}

// fetchAlgo asks the server which TM system backs it ("unknown" when the
// metrics endpoint is unreachable — the sweep proceeds, the dump label
// degrades).
func fetchAlgo(addr string) string {
	data, err := getMetricsJSON(addr)
	var d *bench.ServeDump
	if err == nil {
		d, err = bench.ParseServeDump(data)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhload: warning: metrics fetch failed: %v\n", err)
		return "unknown"
	}
	return d.Algo
}

// fetchServeDump fetches the server's rhserve.v1 dump, schema-validates it,
// and writes it to path.
func fetchServeDump(addr, path string) {
	data, err := getMetricsJSON(addr)
	if err != nil {
		fatalf("dump fetch: %v", err)
	}
	if err := bench.ValidateDump(data); err != nil {
		fatalf("server dump invalid: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("dump write: %v", err)
	}
	fmt.Printf("rhload: wrote validated %s dump to %s\n", bench.ServeSchemaVersion, path)
}

// getMetricsJSON reads the body of the server's /metrics?format=json. A
// status other than 200 is an error that names it, so a wrong address is
// not reported as a dump that does not parse.
func getMetricsJSON(addr string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics?format=json: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func writeJSONFile(path string, rec *bench.JSONRecorder) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("json write: %v", err)
	}
	defer f.Close()
	if err := rec.WriteJSON(f); err != nil {
		fatalf("json write: %v", err)
	}
	fmt.Printf("rhload: wrote %d points to %s\n", rec.Len(), path)
}

func parseFloats(csv, flagName string) []float64 {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			usage("bad %s value %q", flagName, p)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(csv, flagName string) []int {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			usage("bad %s value %q (want a positive integer)", flagName, p)
		}
		out = append(out, v)
	}
	return out
}

func targetStr(qps float64) string {
	if qps <= 0 {
		return "closed"
	}
	return fmt.Sprintf("%g", qps)
}

func durStr(ns uint64) string { return time.Duration(ns).Truncate(time.Microsecond).String() }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhload: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports a flag value that cannot be honoured and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhload: "+format+"\n", args...)
	os.Exit(2)
}
