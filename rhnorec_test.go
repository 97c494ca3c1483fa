package rhnorec_test

import (
	"sync"
	"testing"

	"rhnorec"
)

func TestQuickstartShape(t *testing.T) {
	m := rhnorec.NewMemory(1 << 16)
	sys, err := rhnorec.NewRHNOrec(m, rhnorec.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	th := sys.NewThread()
	defer th.Close()
	var acct rhnorec.Addr
	if err := th.Run(func(tx rhnorec.Tx) error {
		acct = tx.Alloc(1)
		tx.Store(acct, 100)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.RunReadOnly(func(tx rhnorec.Tx) error {
		if got := tx.Load(acct); got != 100 {
			t.Errorf("balance = %d, want 100", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats().Commits != 2 {
		t.Errorf("Commits = %d, want 2", th.Stats().Commits)
	}
}

func TestAllConstructors(t *testing.T) {
	mk := map[string]func(m *rhnorec.Memory) (rhnorec.System, error){
		"rh-norec": func(m *rhnorec.Memory) (rhnorec.System, error) {
			return rhnorec.NewRHNOrec(m, rhnorec.Options{Threads: 2})
		},
		"hy-norec": func(m *rhnorec.Memory) (rhnorec.System, error) {
			return rhnorec.NewHybridNOrec(m, rhnorec.Options{Threads: 2})
		},
		"lock-elision": func(m *rhnorec.Memory) (rhnorec.System, error) {
			return rhnorec.NewLockElision(m, rhnorec.Options{Threads: 2})
		},
		"rh-tl2": func(m *rhnorec.Memory) (rhnorec.System, error) {
			return rhnorec.NewRHTL2(m, rhnorec.Options{Threads: 2})
		},
		"phased-tm": func(m *rhnorec.Memory) (rhnorec.System, error) {
			return rhnorec.NewPhasedTM(m, rhnorec.Options{Threads: 2})
		},
		"norec":      func(m *rhnorec.Memory) (rhnorec.System, error) { return rhnorec.NewNOrec(m, false), nil },
		"norec-lazy": func(m *rhnorec.Memory) (rhnorec.System, error) { return rhnorec.NewNOrec(m, true), nil },
		"tl2":        func(m *rhnorec.Memory) (rhnorec.System, error) { return rhnorec.NewTL2(m, 0), nil },
		"serial":     func(m *rhnorec.Memory) (rhnorec.System, error) { return rhnorec.NewSerial(m), nil },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			m := rhnorec.NewMemory(1 << 16)
			sys, err := f(m)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Name() != name {
				t.Errorf("Name = %q", sys.Name())
			}
			if sys.Memory() != m {
				t.Error("Memory accessor broken")
			}
			th := sys.NewThread()
			defer th.Close()
			if err := th.Run(func(tx rhnorec.Tx) error {
				a := tx.Alloc(2)
				tx.Store(a, 1)
				tx.Store(a+1, tx.Load(a)+1)
				if tx.Load(a+1) != 2 {
					t.Error("read-own-write broken through facade")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOptionsValidation(t *testing.T) {
	m := rhnorec.NewMemory(1 << 12)
	if _, err := rhnorec.NewRHNOrec(m, rhnorec.Options{}); err == nil {
		t.Error("no error for missing Threads and Device")
	}
	other := rhnorec.NewMemory(1 << 12)
	dev := rhnorec.NewHTMDevice(other, rhnorec.HTMConfig{})
	if _, err := rhnorec.NewRHNOrec(m, rhnorec.Options{Device: dev}); err == nil {
		t.Error("no error for device over a different memory")
	}
	if _, err := rhnorec.NewRHNOrec(other, rhnorec.Options{Device: dev}); err != nil {
		t.Errorf("valid shared device rejected: %v", err)
	}
}

func TestSharedDeviceAcrossSystems(t *testing.T) {
	m := rhnorec.NewMemory(1 << 16)
	dev := rhnorec.NewHTMDevice(m, rhnorec.HTMConfig{})
	dev.SetActiveThreads(2)
	rh, err := rhnorec.NewRHNOrec(m, rhnorec.Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	le, err := rhnorec.NewLockElision(m, rhnorec.Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	_ = le
	th := rh.NewThread()
	defer th.Close()
	if err := th.Run(func(tx rhnorec.Tx) error { tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDataStructureFacade(t *testing.T) {
	m := rhnorec.NewMemory(1 << 20)
	sys, err := rhnorec.NewRHNOrec(m, rhnorec.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	setup := sys.NewThread()
	var treeHead, qHead rhnorec.Addr
	if err := setup.Run(func(tx rhnorec.Tx) error {
		treeHead = rhnorec.NewRBTree(tx).Head()
		qHead = rhnorec.NewQueue(tx).Head()
		s := rhnorec.NewStack(tx)
		s.Push(tx, 1)
		h := rhnorec.NewHashMap(tx, 8)
		h.Put(tx, 1, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			tree := rhnorec.AttachRBTree(treeHead)
			q := rhnorec.AttachQueue(qHead)
			for j := uint64(0); j < 100; j++ {
				if err := th.Run(func(tx rhnorec.Tx) error {
					tree.Put(tx, id*1000+j, j)
					q.Push(tx, id*1000+j)
					return nil
				}); err != nil {
					t.Errorf("op: %v", err)
					return
				}
			}
		}(uint64(i))
	}
	wg.Wait()
	check := sys.NewThread()
	defer check.Close()
	if err := check.Run(func(tx rhnorec.Tx) error {
		tree := rhnorec.AttachRBTree(treeHead)
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		if tree.Size(tx) != 400 {
			t.Errorf("tree size = %d, want 400", tree.Size(tx))
		}
		if q := rhnorec.AttachQueue(qHead); q.Size(tx) != 400 {
			t.Errorf("queue size = %d, want 400", q.Size(tx))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
