package bench

import (
	"sync/atomic"

	"rhnorec/internal/conformance"
	"rhnorec/internal/tm"
)

// ScenarioWorkload adapts a conformance-registry scenario to the benchmark
// harness at the given scale. The returned workload implements
// InvariantWorkload, so Run folds the scenario's oracle into the Result
// (Violations, CheckError) and the dump carries them for the SLO gate. A
// worker op that returns an error (which fails the point, see Run) is also
// counted as a violation, so the Result beside that error says so too.
func ScenarioWorkload(sc conformance.Scenario, scale conformance.Scale) WorkloadFactory {
	return func() Workload {
		return &scenarioWorkload{sc: sc, inst: sc.New(scale)}
	}
}

// ScenarioWorkloads returns one factory per registry scenario, in registry
// order — the workload set of the scenarios experiment and the CI
// conformance-matrix gate.
func ScenarioWorkloads(scale conformance.Scale) []WorkloadFactory {
	scs := conformance.Scenarios()
	factories := make([]WorkloadFactory, len(scs))
	for i, sc := range scs {
		factories[i] = ScenarioWorkload(sc, scale)
	}
	return factories
}

type scenarioWorkload struct {
	sc         conformance.Scenario
	inst       conformance.Instance
	violations atomic.Uint64
}

func (w *scenarioWorkload) Name() string { return w.sc.Name }

func (w *scenarioWorkload) Setup(th tm.Thread) error { return w.inst.Setup(th) }

func (w *scenarioWorkload) NewOp(th tm.Thread, seed int64) func() error {
	report := func(string) { w.violations.Add(1) }
	op := w.inst.NewWorker(th, seed, report)
	return func() error {
		if err := op(); err != nil {
			w.violations.Add(1)
			return err
		}
		return nil
	}
}

func (w *scenarioWorkload) Check(sys tm.System) error { return w.inst.Check(sys) }

func (w *scenarioWorkload) Violations() uint64 { return w.violations.Load() }
