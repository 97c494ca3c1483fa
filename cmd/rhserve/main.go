// Command rhserve runs the network-facing transactional KV service: the
// striped word arena behind a GET/PUT/CAS/SCAN/TXN surface, served over
// HTTP/JSON and the length-prefixed binary protocol on one listener
// (docs/SERVE.md is the operator manual).
//
// Usage:
//
//	rhserve                              # rh-norec, :7421, 64Ki keys
//	rhserve -addr 127.0.0.1:0 -algo hy-norec -workers 8
//	rhserve -queue 128 -batch 32 -timeout 250ms
//
// Knobs: -addr listen address, -algo TM system (rhbench -experiment list
// vocabulary; an unknown name exits 2), -keys KV slots, -workers sticky
// worker pool size (default: simulated core count), -queue max chains
// blocked waiting for one worker, -batch max requests fused into one
// transaction, -timeout longest wait for the worker before a request is
// shed, -retryafter shed backoff hint, -cores simulated HTM cores, -pprof
// mounts net/http/pprof under /debug/pprof/ (opt-in profiling).
//
// Durability (docs/PERSIST.md): -data <dir> arms the redo-log persistence
// plane — boot replays the directory's logs (crash recovery) and committing
// writes append to them, under any -algo; group fsync makes them durable.
// -durable makes every write request wait for its fsync before the reply
// (per-connection opt-in exists on the binary protocol via OpcodeDurable);
// it needs -data.
//
// Observability: GET /metrics is the human-readable counter page;
// GET /metrics?format=json is the rhserve.v1 dump (docs/METRICS.md),
// fetched and validated by cmd/rhload -dump and held by cmd/rhgate to its
// p99 and abort-rate bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7421", "listen address (host:port; port 0 picks one)")
		algo       = flag.String("algo", "rh-norec", "TM algorithm backing the store")
		keys       = flag.Int("keys", 1<<16, "number of KV slots")
		workers    = flag.Int("workers", 0, "sticky worker pool size (0 = simulated core count)")
		queue      = flag.Int("queue", 256, "max request chains blocked waiting for one worker (more are shed)")
		batch      = flag.Int("batch", 16, "max requests fused into one transaction")
		timeout    = flag.Duration("timeout", time.Second, "longest a request may wait for its worker before it is shed")
		retryAfter = flag.Duration("retryafter", time.Second, "shed backoff hint")
		cores      = flag.Int("cores", 0, "simulated HTM cores (0 = default)")
		pprofFlag  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service mux")
		dataDir    = flag.String("data", "", "redo-log directory: arms durable persistence + boot crash recovery")
		durable    = flag.Bool("durable", false, "every write request waits for its fsync before the reply")
	)
	flag.Parse()

	if _, ok := bench.AlgoByName(*algo); !ok {
		usage("unknown -algo %q (rhbench -experiment list names them)", *algo)
	}
	if *durable && *dataDir == "" {
		usage("-durable needs -data <dir>: without a redo log nothing is ever durable")
	}
	hcfg := htm.Config{}
	if *cores > 0 {
		hcfg.Cores = *cores
	}
	s, err := serve.New(serve.Config{
		Algo:           *algo,
		Keys:           *keys,
		HTM:            hcfg,
		Workers:        *workers,
		QueueDepth:     *queue,
		BatchMax:       *batch,
		RequestTimeout: *timeout,
		RetryAfter:     *retryAfter,
		Pprof:          *pprofFlag,
		DataDir:        *dataDir,
		DurableAcks:    *durable,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhserve: %v\n", err)
		os.Exit(1)
	}
	if stats, on := s.Recovery(); on {
		fmt.Printf("rhserve: recovered %s: replayed %d commits to seq %d, torn tails %d\n",
			*dataDir, stats.Commits, stats.Seq, stats.TornTails)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rhserve: %s on %s (%d keys, %d workers)\n", s.Algo(), bound, s.Keys(), s.Workers())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("rhserve: shutting down")
	s.Close()
}

// usage reports a flag combination that cannot be honoured and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhserve: "+format+"\n", args...)
	os.Exit(2)
}
