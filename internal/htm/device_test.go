package htm

import (
	"sync"
	"testing"

	"rhnorec/internal/mem"
)

func TestDeviceAccessors(t *testing.T) {
	m := mem.New(1 << 12)
	d := NewDevice(m, Config{Cores: 4})
	if d.Memory() != m {
		t.Error("Memory accessor broken")
	}
	if d.Config().Cores != 4 {
		t.Errorf("Config().Cores = %d", d.Config().Cores)
	}
	d.SetActiveThreads(6)
	if d.ActiveThreads() != 6 {
		t.Errorf("ActiveThreads = %d", d.ActiveThreads())
	}
}

func TestEffectiveCapsHalveExactlyAboveCores(t *testing.T) {
	m := mem.New(1 << 12)
	d := NewDevice(m, Config{Cores: 8, ReadCapacityLines: 100, WriteCapacityLines: 40})
	d.SetActiveThreads(8) // at the core count: full capacity
	r, w := d.effectiveCaps()
	if r != 100 || w != 40 {
		t.Errorf("caps at 8 threads = %d,%d want 100,40", r, w)
	}
	d.SetActiveThreads(9) // one over: halved
	r, w = d.effectiveCaps()
	if r != 50 || w != 20 {
		t.Errorf("caps at 9 threads = %d,%d want 50,20", r, w)
	}
}

func TestYieldDisabled(t *testing.T) {
	m := mem.New(1 << 14)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	a := tc.Alloc(1)
	tx := d.NewTxn()
	// Just exercise the disabled-yield path over many ops.
	tx.Begin()
	for i := 0; i < 1000; i++ {
		_ = tx.Load(a)
	}
	tx.Commit()
}

func TestConcurrentDeviceStats(t *testing.T) {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(4)
	tc := m.NewThreadCache()
	a := tc.Alloc(1)
	_ = a
	var wg sync.WaitGroup
	const threads, per = 4, 200
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := d.NewTxn()
			ctc := m.NewThreadCache()
			b := ctc.Alloc(1)
			for j := 0; j < per; j++ {
				tx.Attempt(func() { tx.Store(b, uint64(j)) })
			}
		}()
	}
	wg.Wait()
	s := d.Stats()
	if s.Starts < threads*per {
		t.Errorf("Starts = %d, want >= %d", s.Starts, threads*per)
	}
	if s.Commits+s.ConflictAborts+s.CapacityAborts+s.ExplicitAborts+s.SpuriousAborts < threads*per {
		t.Errorf("outcome counters do not cover all starts: %+v", s)
	}
}
