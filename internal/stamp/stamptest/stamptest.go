// Package stamptest holds the TM-system matrix the STAMP-style kernels are
// tested over. Each kernel is a conformance.Instance, so its tests drive it
// with conformance.Drive against the serial oracle and the hybrid systems.
package stamptest

import (
	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/tm"
)

// Factory builds a fresh system over a fresh memory.
type Factory func() tm.System

// Systems returns the standard matrix of systems the apps are tested over:
// the serial oracle, the NOrec STM, Hybrid NOrec, RH NOrec, and RH NOrec
// with a tiny HTM that forces the mixed slow path.
func Systems(memWords int) map[string]Factory {
	newMem := func() *mem.Memory { return mem.New(memWords) }
	return map[string]Factory{
		"serial": func() tm.System { return lockelision.NewSerial(newMem()) },
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
