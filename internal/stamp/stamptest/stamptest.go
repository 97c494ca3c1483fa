// Package stamptest provides the shared test driver for the STAMP-style
// workloads: set up an app over a TM system, hammer it from several worker
// goroutines, then run its integrity check on the quiesced state. Each app
// package invokes it against the serial oracle and the hybrid systems.
package stamptest

import (
	"sync"
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/serial"
	"rhnorec/internal/tm"
)

// App is the structural interface every workload satisfies.
type App interface {
	Name() string
	Setup(th tm.Thread) error
}

// Factory builds a fresh system over a fresh memory.
type Factory func() tm.System

// Systems returns the standard matrix of systems the apps are tested over:
// the serial oracle, the NOrec STM, Hybrid NOrec, RH NOrec, and RH NOrec
// with a tiny HTM that forces the mixed slow path.
func Systems(memWords int) map[string]Factory {
	newMem := func() *mem.Memory { return mem.New(memWords) }
	return map[string]Factory{
		"serial": func() tm.System { return serial.New(newMem()) },
		"norec":  func() tm.System { return norec.New(newMem(), norec.Eager) },
		"hy-norec": func() tm.System {
			m := newMem()
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return core.NewHybridNOrec(m, d, tm.RetryPolicy{})
		},
		"rh-norec": func() tm.System {
			m := newMem()
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return core.New(m, d, tm.RetryPolicy{})
		},
		"rh-norec-tiny-htm": func() tm.System {
			m := newMem()
			d := htm.NewDevice(m, htm.Config{ReadCapacityLines: 16, WriteCapacityLines: 8})
			d.SetActiveThreads(4)
			return core.New(m, d, tm.RetryPolicy{})
		},
	}
}

// Run sets up the app on sys, runs threads×ops operations, and calls check
// on the quiesced state.
func Run(t *testing.T, sys tm.System, app App,
	newWorker func(th tm.Thread, seed int64) func() error,
	check func(th tm.Thread) error, threads, ops int) {
	t.Helper()
	setup := sys.NewThread()
	if err := app.Setup(setup); err != nil {
		t.Fatalf("%s setup: %v", app.Name(), err)
	}
	setup.Close()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			op := newWorker(th, seed)
			for j := 0; j < ops; j++ {
				if err := op(); err != nil {
					t.Errorf("%s op: %v", app.Name(), err)
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if check != nil {
		th := sys.NewThread()
		defer th.Close()
		if err := check(th); err != nil {
			t.Errorf("%s integrity: %v", app.Name(), err)
		}
	}
}
