package txds_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// orderedMap is the common surface of SkipList and SortedList, letting one
// test body cover both.
type orderedMap interface {
	Get(tx tm.Tx, key uint64) (uint64, bool)
	Put(tx tm.Tx, key, value uint64) (uint64, bool)
	Delete(tx tm.Tx, key uint64) (uint64, bool)
	Size(tx tm.Tx) uint64
	Keys(tx tm.Tx) []uint64
	CheckInvariants(tx tm.Tx) error
	Head() mem.Addr
}

type orderedKind struct {
	name   string
	create func(tx tm.Tx) orderedMap
	attach func(head mem.Addr) orderedMap
}

func kinds() []orderedKind {
	return []orderedKind{
		{"skiplist",
			func(tx tm.Tx) orderedMap { return txds.NewSkipList(tx) },
			func(h mem.Addr) orderedMap { return txds.AttachSkipList(h) }},
		{"sortedlist",
			func(tx tm.Tx) orderedMap { return txds.NewSortedList(tx) },
			func(h mem.Addr) orderedMap { return txds.AttachSortedList(h) }},
	}
}

func TestOrderedBasics(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			th := lockelision.NewSerial(mem.New(1 << 20)).NewThread()
			defer th.Close()
			if err := th.Run(func(tx tm.Tx) error {
				m := k.create(tx)
				if _, ok := m.Get(tx, 5); ok {
					t.Error("Get on empty structure succeeded")
				}
				for _, key := range []uint64{5, 1, 9, 3, 7, 2, 8} {
					if _, replaced := m.Put(tx, key, key*10); replaced {
						t.Errorf("fresh Put(%d) reported replaced", key)
					}
				}
				if prev, replaced := m.Put(tx, 5, 555); !replaced || prev != 50 {
					t.Errorf("replace = %d,%v", prev, replaced)
				}
				if m.Size(tx) != 7 {
					t.Errorf("Size = %d, want 7", m.Size(tx))
				}
				keys := m.Keys(tx)
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Errorf("Keys not sorted: %v", keys)
				}
				if v, ok := m.Delete(tx, 3); !ok || v != 30 {
					t.Errorf("Delete(3) = %d,%v", v, ok)
				}
				if _, ok := m.Delete(tx, 3); ok {
					t.Error("double delete succeeded")
				}
				if _, ok := m.Delete(tx, 1); !ok { // head deletion
					t.Error("head delete failed")
				}
				if _, ok := m.Delete(tx, 9); !ok { // tail deletion
					t.Error("tail delete failed")
				}
				return m.CheckInvariants(tx)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOrderedDifferentialVsMapOracle(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			th := lockelision.NewSerial(mem.New(1 << 21)).NewThread()
			defer th.Close()
			var m orderedMap
			if err := th.Run(func(tx tm.Tx) error { m = k.create(tx); return nil }); err != nil {
				t.Fatal(err)
			}
			oracle := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3000; i++ {
				key := uint64(rng.Intn(128))
				v := rng.Uint64()
				op := rng.Intn(3)
				if err := th.Run(func(tx tm.Tx) error {
					switch op {
					case 0:
						prev, replaced := m.Put(tx, key, v)
						want, ok := oracle[key]
						if replaced != ok || (ok && prev != want) {
							t.Fatalf("iter %d: Put mismatch", i)
						}
					case 1:
						got, ok := m.Get(tx, key)
						want, wok := oracle[key]
						if ok != wok || (ok && got != want) {
							t.Fatalf("iter %d: Get mismatch", i)
						}
					case 2:
						got, ok := m.Delete(tx, key)
						want, wok := oracle[key]
						if ok != wok || (ok && got != want) {
							t.Fatalf("iter %d: Delete mismatch", i)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				switch op {
				case 0:
					oracle[key] = v
				case 2:
					delete(oracle, key)
				}
				if i%500 == 0 {
					if err := th.Run(func(tx tm.Tx) error { return m.CheckInvariants(tx) }); err != nil {
						t.Fatalf("iter %d: %v", i, err)
					}
				}
			}
		})
	}
}

func TestOrderedQuickInsertDelete(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			f := func(keys []uint16) bool {
				th := lockelision.NewSerial(mem.New(1 << 21)).NewThread()
				defer th.Close()
				ok := true
				_ = th.Run(func(tx tm.Tx) error {
					m := k.create(tx)
					distinct := map[uint64]bool{}
					for _, key := range keys {
						m.Put(tx, uint64(key), 1)
						distinct[uint64(key)] = true
					}
					if m.Size(tx) != uint64(len(distinct)) {
						ok = false
					}
					if m.CheckInvariants(tx) != nil {
						ok = false
					}
					i := 0
					for key := range distinct {
						if i%2 == 0 {
							if _, found := m.Delete(tx, key); !found {
								ok = false
							}
						}
						i++
					}
					if m.CheckInvariants(tx) != nil {
						ok = false
					}
					return nil
				})
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSkipListMinAndRange(t *testing.T) {
	th := lockelision.NewSerial(mem.New(1 << 20)).NewThread()
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		s := txds.NewSkipList(tx)
		if _, _, ok := s.Min(tx); ok {
			t.Error("Min on empty skip list returned ok")
		}
		for _, k := range []uint64{40, 10, 30, 20, 50} {
			s.Put(tx, k, k+1)
		}
		if k, v, ok := s.Min(tx); !ok || k != 10 || v != 11 {
			t.Errorf("Min = %d,%d,%v", k, v, ok)
		}
		var got []uint64
		s.Range(tx, 20, 40, func(k, v uint64) bool {
			if v != k+1 {
				t.Errorf("Range value for %d = %d", k, v)
			}
			got = append(got, k)
			return true
		})
		if len(got) != 3 || got[0] != 20 || got[2] != 40 {
			t.Errorf("Range keys = %v, want [20 30 40]", got)
		}
		count := 0
		s.Range(tx, 0, 100, func(uint64, uint64) bool { count++; return false })
		if count != 1 {
			t.Errorf("early-stop Range visited %d, want 1", count)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedConcurrentOverHybrid(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			m := mem.New(1 << 21)
			dev := htm.NewDevice(m, htm.Config{})
			dev.SetActiveThreads(4)
			sys := core.New(m, dev, tm.RetryPolicy{})
			setup := sys.NewThread()
			var head mem.Addr
			if err := setup.Run(func(tx tm.Tx) error {
				om := k.create(tx)
				for key := uint64(0); key < 32; key++ {
					om.Put(tx, key*2, key)
				}
				head = om.Head()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			setup.Close()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					th := sys.NewThread()
					defer th.Close()
					om := k.attach(head)
					rng := rand.New(rand.NewSource(seed))
					for j := 0; j < 200; j++ {
						key := uint64(rng.Intn(64))
						switch rng.Intn(4) {
						case 0:
							_ = th.Run(func(tx tm.Tx) error { om.Put(tx, key, key); return nil })
						case 1:
							_ = th.Run(func(tx tm.Tx) error { om.Delete(tx, key); return nil })
						default:
							_ = th.RunReadOnly(func(tx tm.Tx) error { om.Get(tx, key); return nil })
						}
					}
				}(int64(i + 5))
			}
			wg.Wait()
			check := sys.NewThread()
			defer check.Close()
			if err := check.Run(func(tx tm.Tx) error { return k.attach(head).CheckInvariants(tx) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}
