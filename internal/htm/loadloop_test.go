package htm

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"rhnorec/internal/mem"
)

// loopLog is a device hook and a memory hook writing one event log, with
// addresses by name. at, when set, runs at each event after it is logged; it
// is not re-entered for the events its own accesses raise.
type loopLog struct {
	mu     sync.Mutex
	names  map[mem.Addr]string
	events []string
	at     func(ev string)
	busy   bool
}

func (l *loopLog) add(ev string, a mem.Addr) {
	if name, ok := l.names[a]; ok {
		ev += " " + name
	} else if a != mem.Nil {
		ev += fmt.Sprintf(" %d", a)
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	at := l.at
	if l.busy {
		at = nil
	}
	l.busy = l.busy || at != nil
	l.mu.Unlock()
	if at != nil {
		at(ev)
		l.mu.Lock()
		l.busy = false
		l.mu.Unlock()
	}
}

type loopHTMHook struct{ *loopLog }

func (h loopHTMHook) Yield(op HookOp, a mem.Addr, info uint64) Directive {
	name := [...]string{HookBegin: "htm.begin", HookLoad: "htm.load", HookStore: "htm.store",
		HookValidate: "htm.validate", HookCommit: "htm.commit", HookAbort: "htm.abort"}[op]
	if op == HookAbort {
		code, _ := UnpackAbortInfo(info)
		name += " " + code.String()
	}
	h.add(name, a)
	return DirNone
}

type loopMemHook struct{ *loopLog }

func (h loopMemHook) Yield(op mem.HookOp, a mem.Addr) {
	h.add([...]string{mem.HookLoad: "mem.load", mem.HookStore: "mem.store", mem.HookCAS: "mem.cas",
		mem.HookAdd: "mem.add", mem.HookCommit: "mem.commit"}[op], a)
}
func (loopMemHook) AtomicBegin() {}
func (loopMemHook) AtomicEnd()   {}

// loadInOpenTxn begins a transaction, runs body and cancels the transaction
// while it is still open, so what the loads left behind is what the caller
// inspects. An abort is returned in place of the body's value.
func loadInOpenTxn(tx *Txn, body func() uint64) (v uint64, ab *Abort) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := AsAbort(r)
			if !ok {
				panic(r)
			}
			ab = a
		}
	}()
	tx.Begin()
	v = body()
	tx.Cancel()
	return v, nil
}

// TestLoadReadLoopBranches drives each way Load's read loop can end, or go
// round again, and pins what it leaves: the value or abort, the watermark of
// every footprint stripe, the ticket gate, and every htm and mem hook event
// in order — the events recorded before the loop moved into Load. x, y and u
// head lines on stripes 1, 2 and 3. Set-up stores x = 10, x+1 = 11 and
// y = 20, so the ticket starts at 3, x's stripe clock at 4 and y's at 2.
func TestLoadReadLoopBranches(t *testing.T) {
	const x, y, u = mem.Addr(1 * mem.LineWords), mem.Addr(2 * mem.LineWords), mem.Addr(3 * mem.LineWords)
	type fixture struct {
		m   *mem.Memory
		tx  *Txn
		log *loopLog
	}
	rows := []struct {
		name string
		// body runs inside the transaction; its value is its last load's.
		body   func(f fixture) uint64
		want   uint64
		code   Code                // the abort the body dies with, if any
		marks  map[mem.Addr]uint64 // watermark of each footprint stripe, by an address in it
		gate   uint64
		events []string
	}{
		{
			name: "unchanged watermarked stripe",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				return f.tx.Load(x + 1)
			},
			want:  11,
			marks: map[mem.Addr]uint64{x: 4},
			gate:  3,
			events: []string{"htm.begin", "htm.load x", "mem.load x",
				"htm.load x+1", "mem.load x+1"},
		},
		{
			name: "first read, gate holds",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				return f.tx.Load(y)
			},
			want:  20,
			marks: map[mem.Addr]uint64{x: 4, y: 2},
			gate:  3,
			events: []string{"htm.begin", "htm.load x", "mem.load x",
				"htm.load y", "mem.load y"},
		},
		{
			name: "first read, ticket moved: sweep and re-arm",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				f.m.StorePlain(u, 1) // outside the footprint
				return f.tx.Load(y)
			},
			want:  20,
			marks: map[mem.Addr]uint64{x: 4, y: 2},
			gate:  4,
			events: []string{"htm.begin", "htm.load x", "mem.load x", "mem.store u",
				"htm.load y", "mem.load y"},
		},
		{
			name: "moved stripe, logged value intact: watermark advances",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				f.m.StorePlain(x+1, 12) // a word of x's line the log does not hold
				return f.tx.Load(x + 1)
			},
			want:  12,
			marks: map[mem.Addr]uint64{x: 6},
			gate:  4,
			events: []string{"htm.begin", "htm.load x", "mem.load x", "mem.store x+1",
				"htm.load x+1", "mem.load x+1", "htm.validate x+1", "mem.load x"},
		},
		{
			name: "moved stripe, logged value changed: conflict",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				f.m.StorePlain(x, 99)
				return f.tx.Load(x + 1)
			},
			code:  Conflict,
			marks: map[mem.Addr]uint64{x: 4},
			gate:  3,
			events: []string{"htm.begin", "htm.load x", "mem.load x", "mem.store x",
				"htm.load x+1", "mem.load x+1", "htm.validate x+1", "mem.load x",
				"htm.abort conflict"},
		},
		{
			name: "odd clock at the first sample",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				done := make(chan struct{})
				f.log.at = func(ev string) {
					if ev != "htm.load y" {
						return
					}
					// A writer opens y's window and holds it while the load
					// takes its first sample of y's clock.
					opened := make(chan struct{})
					go func() {
						defer close(done)
						f.m.CommitWrites([]mem.WriteEntry{{Addr: y, Value: 21}}, func() bool {
							close(opened)
							time.Sleep(time.Millisecond)
							return true
						})
					}()
					<-opened
				}
				v := f.tx.Load(y)
				<-done
				return v
			},
			want:  21,
			marks: map[mem.Addr]uint64{x: 4, y: 4},
			gate:  4,
			events: []string{"htm.begin", "htm.load x", "mem.load x",
				"htm.load y", "mem.commit y", "mem.load y"},
		},
		{
			name: "clock moves between the two samples",
			body: func(f fixture) uint64 {
				f.tx.Load(x)
				injected := false
				f.log.at = func(ev string) {
					if ev == "mem.load y" && !injected {
						injected = true
						f.m.StorePlain(y, 22) // lands after the load's first sample
					}
				}
				return f.tx.Load(y)
			},
			want:  22,
			marks: map[mem.Addr]uint64{x: 4, y: 4},
			gate:  4,
			events: []string{"htm.begin", "htm.load x", "mem.load x",
				"htm.load y", "mem.load y", "mem.store y", "mem.load y"},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			m := mem.New(1 << 10)
			d := NewDevice(m, Config{})
			d.SetActiveThreads(1)
			m.StorePlain(x, 10)
			m.StorePlain(x+1, 11)
			m.StorePlain(y, 20)
			log := &loopLog{names: map[mem.Addr]string{}}
			for name, a := range map[string]mem.Addr{"x": x, "y": y, "u": u} {
				log.names[a] = name
				for w := mem.Addr(1); w < mem.LineWords; w++ {
					log.names[a+w] = fmt.Sprintf("%s+%d", name, w)
				}
			}
			m.SetHook(loopMemHook{log})
			d.SetHook(loopHTMHook{log})
			tx := d.NewTxn()
			v, ab := loadInOpenTxn(tx, func() uint64 { return r.body(fixture{m, tx, log}) })
			switch {
			case r.code != 0 && (ab == nil || ab.Code != r.code):
				t.Errorf("abort = %v, want %v", ab, r.code)
			case r.code == 0 && ab != nil:
				t.Errorf("unexpected abort %v", ab)
			case r.code == 0 && v != r.want:
				t.Errorf("value = %d, want %d", v, r.want)
			}
			marks := map[int]uint64{}
			for s := range m.StripeCount() {
				if mark, ok := tx.marks.get(s); ok {
					marks[s] = mark
				}
			}
			want := map[int]uint64{}
			for a, mark := range r.marks {
				want[m.StripeOf(a)] = mark
			}
			if !maps.Equal(marks, want) {
				t.Errorf("watermarks by stripe = %v, want %v", marks, want)
			}
			if tx.gate != r.gate {
				t.Errorf("gate = %d, want %d", tx.gate, r.gate)
			}
			log.mu.Lock()
			defer log.mu.Unlock()
			if fmt.Sprint(log.events) != fmt.Sprint(r.events) {
				t.Errorf("events:\n got %q\nwant %q", log.events, r.events)
			}
		})
	}
}
