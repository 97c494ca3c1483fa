// Package rhnorec is a Go reproduction of "Reduced Hardware NOrec: A Safe
// and Scalable Hybrid Transactional Memory" (Matveev & Shavit, ASPLOS 2015).
//
// It provides the paper's contribution — the RH NOrec hybrid TM — together
// with every system it is evaluated against (Lock Elision, the NOrec and
// TL2 STMs, Hybrid NOrec), all running over a simulated best-effort
// hardware transactional memory, plus transactional data structures and the
// benchmark workloads of the paper's evaluation. See DESIGN.md for the
// architecture and the hardware-substitution rationale, and EXPERIMENTS.md
// for the reproduced figures.
//
// # Quick start
//
//	m := rhnorec.NewMemory(1 << 22)
//	sys, _ := rhnorec.NewRHNOrec(m, rhnorec.Options{Threads: 8})
//
//	th := sys.NewThread() // one per goroutine
//	defer th.Close()
//
//	var acct rhnorec.Addr
//	th.Run(func(tx rhnorec.Tx) error {
//	    acct = tx.Alloc(1)
//	    tx.Store(acct, 100)
//	    return nil
//	})
//
// All shared state lives in a word-addressable Memory; transactions access
// it through Tx.Load and Tx.Store and are retried automatically until they
// commit. Returning an error from the callback aborts the transaction
// cleanly. RunReadOnly declares a read-only transaction (the equivalent of
// the paper's compiler hint), enabling the fast paths' clock-free commit.
//
// Transactions nest flat (the GCC TM semantics): a Run issued from inside a
// running callback on the same Thread executes inline in the enclosing
// transaction — its reads see the enclosing writes and its writes commit or
// abort with the whole flattened transaction. An error returned by a nested
// callback propagates to the enclosing callback, which aborts everything by
// returning it or continues by swallowing it.
package rhnorec

import (
	"fmt"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/phasedtm"
	"rhnorec/internal/rhtl2"
	"rhnorec/internal/tl2"
	"rhnorec/internal/tm"
)

// Core memory types.
type (
	// Addr is a word index into a Memory; Nil is the reserved null.
	Addr = mem.Addr
	// Memory is the word-addressable shared memory every system
	// synchronizes.
	Memory = mem.Memory
)

// Nil is the reserved null address.
const Nil = mem.Nil

// LineWords is the simulated cache-line size in words.
const LineWords = mem.LineWords

// TM runtime types.
type (
	// Tx is the transactional view passed to Run callbacks.
	Tx = tm.Tx
	// Thread is a per-goroutine execution context.
	Thread = tm.Thread
	// System is a TM algorithm instance.
	System = tm.System
	// Stats holds the per-thread counters behind the paper's analysis
	// rows.
	Stats = tm.Stats
	// RetryPolicy holds the ablation switches of the paper's §3.3–§3.4
	// retry machinery; the zero value is the paper's policy. Its budgets
	// (10 hardware tries, 10 slow-path restarts before the serial lock)
	// are constants, not fields.
	RetryPolicy = tm.RetryPolicy
	// HTMConfig describes the simulated transactional hardware.
	HTMConfig = htm.Config
	// HTMDevice is a simulated processor's transactional facility.
	HTMDevice = htm.Device
)

// NewMemory creates a shared transactional memory of the given size in
// 64-bit words.
func NewMemory(sizeWords int) *Memory { return mem.New(sizeWords) }

// NewHTMDevice creates a simulated best-effort HTM over m. All hybrid
// systems sharing m must share the device. Zero config fields take
// Haswell-like defaults (L1-sized write capacity); capacity halves when
// more threads than the testbed's 8 cores are active.
func NewHTMDevice(m *Memory, cfg HTMConfig) *HTMDevice { return htm.NewDevice(m, cfg) }

// Options configures the hybrid-system constructors.
type Options struct {
	// Threads declares how many worker goroutines will run transactions;
	// the simulated hardware uses it for HyperThreading capacity scaling.
	// Required unless Device is supplied.
	Threads int
	// HTM configures the simulated hardware (ignored if Device is set).
	HTM HTMConfig
	// Device supplies an existing device (e.g. to share between systems).
	Device *HTMDevice
	// Policy switches retry paths off; the zero value is the paper's.
	Policy RetryPolicy
}

func (o Options) device(m *Memory) (*HTMDevice, error) {
	if o.Device != nil {
		if o.Device.Memory() != m {
			return nil, fmt.Errorf("rhnorec: device bound to a different memory")
		}
		return o.Device, nil
	}
	if o.Threads <= 0 {
		return nil, fmt.Errorf("rhnorec: Options.Threads must be positive (or supply Options.Device)")
	}
	d := htm.NewDevice(m, o.HTM)
	d.SetActiveThreads(o.Threads)
	return d, nil
}

// NewRHNOrec creates the paper's contribution: the Reduced Hardware NOrec
// hybrid TM (pure hardware fast path; mixed slow path with HTM prefix and
// postfix).
func NewRHNOrec(m *Memory, o Options) (System, error) {
	d, err := o.device(m)
	if err != nil {
		return nil, err
	}
	return core.New(m, d, o.Policy), nil
}

// NewHybridNOrec creates the Hybrid NOrec HyTM of Dalessandro et al., the
// paper's main comparison point.
func NewHybridNOrec(m *Memory, o Options) (System, error) {
	d, err := o.device(m)
	if err != nil {
		return nil, err
	}
	return core.NewHybridNOrec(m, d, o.Policy), nil
}

// NewLockElision creates transactional lock elision: hardware transactions
// with a global-lock fallback.
func NewLockElision(m *Memory, o Options) (System, error) {
	d, err := o.device(m)
	if err != nil {
		return nil, err
	}
	return lockelision.New(m, d, o.Policy), nil
}

// NewNOrec creates the NOrec STM. lazy selects the classic deferred-write
// variant; the default eager variant is the one the paper benchmarks.
func NewNOrec(m *Memory, lazy bool) System {
	if lazy {
		return norec.New(m, norec.Lazy)
	}
	return norec.New(m, norec.Eager)
}

// NewTL2 creates the TL2 STM with the given stripe-table size (0 for the
// default).
func NewTL2(m *Memory, stripes int) System { return tl2.New(m, stripes) }

// NewPhasedTM creates a PhasedTM (paper §1.1 background): global
// all-hardware / all-software phases. Included as the background
// comparison whose phase-switch cost the hybrids avoid.
func NewPhasedTM(m *Memory, o Options) (System, error) {
	d, err := o.device(m)
	if err != nil {
		return nil, err
	}
	return phasedtm.New(m, d, o.Policy), nil
}

// NewRHTL2 creates RH-TL2, the reduced-hardware TL2 hybrid that preceded
// RH NOrec (paper §1.2). Included to make the predecessor's drawbacks —
// instrumented fast-path writes, a fragile combined commit transaction, no
// privatization — observable next to RH NOrec.
func NewRHTL2(m *Memory, o Options) (System, error) {
	d, err := o.device(m)
	if err != nil {
		return nil, err
	}
	return rhtl2.New(m, d, o.Policy), nil
}

// NewSerial creates the global-lock baseline TM (also useful as a
// correctness oracle).
func NewSerial(m *Memory) System { return lockelision.NewSerial(m) }
